import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import graphqa
from generators import _random_predicate, build_graph, random_graph, random_patterns, random_query_ast
from oracle import cell_key, oracle_ordered_rows, oracle_rows
from graphqa.cypher import execute, parse_query, serialize_records
from graphqa.cypher import executor
from graphqa.cypher.ast import print_query
from graphqa.cypher.ast import Binary, FunctionCall, OrderItem, PropertyAccess, Query, ReturnItem, Variable
from graphqa.cypher.executor import _compile, _matches, _Work, sort_key, value_equals, value_less_than
from graphqa.cypher.geo import prepare_point
from graphqa.cypher.records import Point
from graphqa.errors import BudgetError, EngineError, ParseError, RuntimeQueryError, SemanticError, ValidationError
from graphqa.graph import GeneratorConfig, generate_msa_fixture, load_dataset, load_dataset_file, serialize_dataset
from graphqa.graph.store import PropertyGraph
from graphqa.pipeline import NAN_SENTINEL, run_stage1


def small_graph():
    a, b, c = range(3)
    return build_graph(
        [({"A"}, {"p": 1, "name": "a"}), ({"A"}, {"p": 2, "name": "b"}), ({"B"}, {"p": 2.0, "name": "c"})],
        [(a, "R", b, {"w": 1}), (b, "R", c), (c, "S", a)],
    )


def rows(graph, text):
    result = execute(graph, parse_query(text))
    return result.columns, result.rows


def test_tower_4_reference_row(fixture_graph):
    columns, data = rows(fixture_graph, "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long")
    assert columns == ["Lat", "Long"]
    assert data == [(32.58088351, -106.7533307)]


def test_missing_tower_yields_zero_rows(fixture_graph):
    _, data = rows(fixture_graph, "MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s) RETURN s")
    assert data == []


def test_count_towers(fixture_graph):
    _, data = rows(fixture_graph, "MATCH (t:Tower) RETURN count(t)")
    assert data == [(13,)]


def test_unlabeled_pattern_matches_all_nodes(fixture_graph):
    _, data = rows(fixture_graph, "MATCH (n) RETURN count(*)")
    assert data == [(135,)]


def test_count_star_on_empty_match_is_zero():
    _, data = rows(small_graph(), "MATCH (x:C) RETURN count(*)")
    assert data == [(0,)]


def test_mixed_grouping_on_empty_match_has_no_rows():
    _, data = rows(small_graph(), "MATCH (x:C) RETURN x.p, count(*)")
    assert data == []


def test_implicit_grouping_by_non_aggregated_items(fixture_graph):
    columns, data = rows(
        fixture_graph,
        "MATCH (t:Tower)-[:HAS_SENSOR]->(s) RETURN t.Tower, count(s) ORDER BY t.Tower",
    )
    assert columns == ["t.Tower", "count(s)"]
    assert len(data) == 13
    assert sum(count for _, count in data) == 121
    assert data[8] == (8, 9)


def test_count_expr_skips_nulls():
    g = build_graph([({"A"}, {"p": 1}), ({"A"}, {})])
    _, data = rows(g, "MATCH (n:A) RETURN count(n.p)")
    assert data == [(1,)]


def test_inline_property_map_is_equality_filter():
    g = small_graph()
    _, data = rows(g, "MATCH (n:A {p: 1}) RETURN n.name")
    assert data == [("a",)]
    # Numeric equality crosses int/float kinds.
    _, data = rows(g, "MATCH (n {p: 2}) RETURN n.name ORDER BY n.name")
    assert data == [("b",), ("c",)]


def test_undirected_edges_match_both_directions():
    g = small_graph()
    _, data = rows(g, "MATCH (a {name: 'a'})-[:R]-(x) RETURN x.name")
    assert data == [("b",)]
    _, data = rows(g, "MATCH (b {name: 'b'})-[:R]-(x) RETURN x.name ORDER BY x.name")
    assert data == [("a",), ("c",)]


def test_undirected_self_loop_matches_once():
    g = build_graph([({"A"}, {})], [(0, "R", 0)])
    _, data = rows(g, "MATCH (x:A)-[:R]-(y) RETURN count(*)")
    assert data == [(1,)]


def test_relationship_uniqueness_within_clause():
    g = build_graph([({"A"}, {"name": "a"}), ({"A"}, {"name": "b"})], [(0, "R", 1)])
    # The only R edge cannot serve both hops of one clause...
    _, data = rows(g, "MATCH (x)-[:R]-(y)-[:R]-(z) RETURN x, y, z")
    assert data == []
    # ...but separate MATCH clauses may reuse it.
    _, data = rows(g, "MATCH (x)-[:R]->(y) MATCH (p)-[:R]->(q) RETURN count(*)")
    assert data == [(1,)]


def test_shared_variable_joins_clauses():
    g = small_graph()
    _, data = rows(g, "MATCH (a:A)-[:R]->(b) MATCH (b)-[:R]->(c) RETURN a.name, b.name, c.name")
    assert data == [("a", "b", "c")]


def test_unknown_property_yields_null_not_error():
    _, data = rows(small_graph(), "MATCH (n {name: 'a'}) RETURN n.missing")
    assert data == [(None,)]


def test_where_unknown_collapses_to_false():
    g = small_graph()
    _, data = rows(g, "MATCH (n) WHERE n.missing = 1 RETURN n")
    assert data == []
    _, data = rows(g, "MATCH (n) WHERE n.name > 5 RETURN n")  # type mismatch
    assert data == []
    # NOT over unknown stays unknown -> filtered.
    _, data = rows(g, "MATCH (n) WHERE NOT n.missing = 1 RETURN n")
    assert data == []


def test_division():
    _, data = rows(small_graph(), "MATCH (n {name: 'a'}) RETURN 7 / 2, -7 / 2, 7.0 / 2")
    assert data == [(3, -3, 3.5)]
    with pytest.raises(RuntimeQueryError):
        rows(small_graph(), "MATCH (n) RETURN n.p / 0")


def test_return_without_match():
    columns, data = rows(small_graph(), "RETURN 1 + 1 AS two")
    assert columns == ["two"]
    assert data == [(2,)]


def test_distinct():
    _, data = rows(small_graph(), "MATCH (n:A) RETURN DISTINCT n.p - n.p")
    assert data == [(0,)]


def test_order_by_and_limit_with_nulls_last():
    g = build_graph([({"A"}, {"p": 2}), ({"A"}, {"p": 1}), ({"A"}, {})])
    _, data = rows(g, "MATCH (n:A) RETURN n.p ORDER BY n.p")
    assert data == [(1,), (2,), (None,)]
    _, data = rows(g, "MATCH (n:A) RETURN n.p ORDER BY n.p DESC")
    assert data == [(None,), (2,), (1,)]
    _, data = rows(g, "MATCH (n:A) RETURN n.p ORDER BY n.p LIMIT 2")
    assert data == [(1,), (2,)]
    _, data = rows(g, "MATCH (n:A) RETURN n.p ORDER BY n.p LIMIT 0")
    assert data == []


def test_order_by_alias_over_aggregated_rows(fixture_graph):
    _, data = rows(
        fixture_graph,
        "MATCH (t:Tower)-[:HAS_SENSOR]->(s) RETURN t.Tower AS tower, count(s) AS c ORDER BY c DESC, tower LIMIT 2",
    )
    assert data == [(0, 10), (1, 10)]


def test_order_by_unprojected_expr_over_aggregated_rows_rejected(fixture_graph):
    with pytest.raises(SemanticError):
        rows(fixture_graph, "MATCH (t:Tower) RETURN count(t) ORDER BY t.Tower")


@pytest.mark.parametrize("limit", ["", " LIMIT 3"])
@pytest.mark.parametrize("first", ["ASC", "DESC"])
def test_a_later_order_key_is_compared_only_where_the_earlier_ones_tie(fixture_graph, first, limit):
    # Tower numbers are unique, so the map key is never compared, whatever
    # its direction; where the first key ties, a map fails either way.
    def ordered(directions, first_key="t.Tower"):
        order_by = f"{first_key} {directions[0]}, {{a: t.Tower}} {directions[1]}"
        return rows(fixture_graph, f"MATCH (t:Tower) RETURN t.Tower ORDER BY {order_by}{limit}")

    last = "DESC" if first == "ASC" else "ASC"
    expected = ordered((first, first))
    assert ordered((first, last)) == expected
    assert expected[1][:3] == ([(0,), (1,), (2,)] if first == "ASC" else [(12,), (11,), (10,)])
    for directions in [(first, first), (first, last)]:
        with pytest.raises(RuntimeQueryError, match="ungroupable"):
            ordered(directions, first_key="1")


def test_returning_whole_nodes(fixture_graph):
    result = execute(fixture_graph, parse_query("MATCH (t:Tower {Tower: 4}) RETURN t"))
    (row,) = result.rows
    rendered = serialize_records(result)
    assert rendered.startswith("[<Record t=<Node id=4 labels=frozenset({'Tower'})")
    assert "'Lat': 32.58088351" in rendered


def test_point_distance_in_query(fixture_graph):
    _, data = rows(
        fixture_graph,
        "MATCH (a:Tower {Tower: 4}), (b:Tower {Tower: 4}) "
        "RETURN point.distance(point({latitude: a.Lat, longitude: a.Long}), "
        "point({latitude: b.Lat, longitude: b.Long})) AS d",
    )
    assert data == [(0.0,)]


# A map value can be built but not returned, grouped, deduplicated or sorted.
MAP_VALUE_QUERIES = [
    "MATCH (t:Tower {Tower: 4}) RETURN {lat: t.Lat}",
    "MATCH (t:Tower) RETURN DISTINCT {lat: t.Lat}",
    "MATCH (t:Tower) RETURN {lat: t.Lat} AS m, count(*) AS n",
    "MATCH (t:Tower) RETURN t.Tower ORDER BY {lat: t.Lat}",
]


@pytest.mark.parametrize("text", MAP_VALUE_QUERIES)
def test_map_values_fail_as_runtime_errors(shipped_dataset_path, text):
    graph = load_dataset_file(shipped_dataset_path)
    with pytest.raises(RuntimeQueryError):
        serialize_records(execute(graph, parse_query(text)))


def test_map_order_key_on_one_row_still_sorts(fixture_graph):
    assert rows(fixture_graph, "MATCH (t:Tower {Tower: 4}) RETURN t.Tower ORDER BY {lat: t.Lat}") == (
        ["t.Tower"],
        [(4,)],
    )


def geo_graph():
    """P nodes: valid, integer, non-numeric, missing and repeated coordinates;
    one Q node whose latitude is out of range."""
    nodes = []
    for name, lat, lon in [("a", 32.5, -106.7), ("b", 33, -106), ("c", "x", 1.0), ("d", None, 2.0), ("e", 32.5, -106.7)]:
        props = {"name": name, "lon": lon}
        if lat is not None:
            props["lat"] = lat
        nodes.append(({"P"}, props))
    nodes.append(({"Q"}, {"name": "f", "lat": 95.0, "lon": 0.0}))
    return build_graph(nodes)


POINT_N = "point({latitude: n.lat, longitude: n.lon})"
ORIGIN = "point({latitude: 0, longitude: 0})"


def test_point_paths_match_the_oracle():
    g = geo_graph()

    def outcome(run):
        try:
            return run()
        except EngineError as exc:
            return exc.kind

    def compare(text):
        query = parse_query(text)
        engine = outcome(lambda: Counter(tuple(cell_key(c) for c in row) for row in execute(g, query).rows))
        assert engine == outcome(lambda: oracle_rows(g, query)), text
        return engine

    unordered = [
        f"MATCH (n:P) RETURN n.name, {POINT_N}",  # null for text or missing coordinates
        "MATCH (n:P) RETURN point({longitude: n.lon, latitude: n.lat})",
        "MATCH (n:P) RETURN point(n.lat), point(n)",  # not a map: null
        "MATCH (n:P) RETURN point({latitude: 1, longitude: n.lon, latitude: n.lat})",  # the last entry wins
        f"MATCH (n:P) RETURN DISTINCT {POINT_N}",
        f"MATCH (n:P) RETURN {POINT_N} AS p, count(*) AS c",
        f"MATCH (n:P) RETURN n.name, point.distance({POINT_N}, {ORIGIN})",
        f"MATCH (n:P) RETURN point.distance(n.lat, {ORIGIN}), point.distance(n, n)",  # not points: null
    ]
    for text in unordered:
        assert isinstance(compare(text), Counter), text
    for text in [
        "MATCH (n:P) RETURN point({latitude: n.lat, longitude: n.lon, x: 1})",
        "MATCH (n:P) RETURN point({latitude: n.lat})",
    ]:
        assert compare(text) == "runtime", text

    ordered = (
        f"MATCH (n:P) WHERE n.lat > 0 RETURN n.name AS name, {POINT_N} AS p "
        "ORDER BY point.distance(p, point({latitude: 33, longitude: -106})), name DESC"
    )
    assert [name for name, _ in rows(g, ordered)[1]] == ["b", "e", "a"]
    # The oracle lets the geodesic's ValidationError escape here.
    with pytest.raises(RuntimeQueryError, match="latitude"):
        rows(g, f"MATCH (n:Q) RETURN point.distance({POINT_N}, {ORIGIN})")


def point_of(variable, lat="Lat", lon="Long"):
    return f"point({{latitude: {variable}.{lat}, longitude: {variable}.{lon}}})"


CLOSEST = f"point.distance({point_of('a')}, {point_of('b')})"


def random_geo_graph(rng, towers):
    """Towers at seeded points: some repeated, some with a missing or text
    latitude, some with integer coordinates; tower numbers are shuffled."""
    nodes, points = [], []
    for number in rng.sample(range(towers), towers):
        roll = rng.random()
        if roll < 0.1 and points:
            lat, lon = rng.choice(points)
        elif roll < 0.15:
            lat, lon = None, rng.uniform(-180, 180)
        elif roll < 0.2:
            lat, lon = "32.5", rng.uniform(-180, 180)
        elif roll < 0.3:
            lat, lon = rng.randint(-90, 90), rng.randint(-540, 540)
        else:
            lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        props = {"Tower": number, "Long": lon}
        if lat is not None:
            props["Lat"] = lat
        nodes.append(({"Tower"}, props))
        points.append((lat, lon))
    return build_graph(nodes)


def ordered_outcome(graph, query):
    """Engine and oracle rows in order, or both error kinds."""

    def outcome(run):
        try:
            return run()
        except EngineError as exc:
            return exc.kind
        except ValidationError:  # the oracle lets the geodesic's error escape
            return "runtime"

    engine = outcome(lambda: [tuple(cell_key(c) for c in row) for row in execute(graph, query).rows])
    return engine, outcome(lambda: oracle_ordered_rows(graph, query))


CLOSEST_PAIR_SHAPES = [
    f"MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower, b.Tower ORDER BY {CLOSEST}{direction}{limit}"
    for direction in ("", " DESC")
    for limit in ("", " LIMIT 1", " LIMIT 5")
] + [
    f"MATCH (a:Tower), (b:Tower) WHERE a.Tower <> b.Tower RETURN a.Tower, b.Tower, {CLOSEST} AS d "
    "ORDER BY d DESC LIMIT 7",
    f"MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower AS x, b.Tower AS y "
    f"ORDER BY point.distance({point_of('b')}, {point_of('a')}) LIMIT 4",
    # Each point reads both variables, so neither is kept per node.
    "MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower, b.Tower "
    "ORDER BY point.distance(point({latitude: a.Lat, longitude: b.Long}), point({latitude: b.Lat, longitude: a.Long}))",
    "MATCH (a:Tower) RETURN a.Tower ORDER BY point.distance(point({latitude: 10, longitude: 20}), "
    f"{point_of('a')}) DESC",
]


@pytest.mark.parametrize("text", CLOSEST_PAIR_SHAPES)
def test_closest_pair_shapes_match_the_oracle_on_random_points(text):
    query = parse_query(text)
    rng = random.Random(23)
    for towers in (0, 1, 2, 7, 30):
        engine, oracle = ordered_outcome(random_geo_graph(rng, towers), query)
        assert isinstance(engine, list), engine
        assert engine == oracle, (towers, text)


POINT_A = point_of("a", "lat", "lon")
ORIGIN_95 = "point({latitude: 95, longitude: 0})"  # a constant argument the check rejects


def geo_pairs(a_label, b_label, where):
    distance = f"point.distance({POINT_A}, {point_of('b', 'lat', 'lon')})"
    return f"MATCH (a{a_label}), (b{b_label}) WHERE {where} RETURN a.name, b.name ORDER BY {distance}"


@pytest.mark.parametrize(
    "text, expected",
    [
        (geo_pairs(":P", ":P", "a.name < b.name"), "rows"),
        (geo_pairs(":P", ":P", "a.name <> b.name") + " DESC LIMIT 3", "rows"),
        # The lat-95 Q node meets only points that are null: no row reaches the check.
        (geo_pairs(":P", ":Q", "a.name = 'c' OR a.name = 'd'"), "rows"),
        (geo_pairs(":Q", ":P", "b.name = 'c' OR b.name = 'd'") + " DESC", "rows"),
        (f"MATCH (a:P) WHERE a.name = 'c' RETURN a.name ORDER BY point.distance({ORIGIN_95}, {POINT_A})", "rows"),
        (f"MATCH (a:P) WHERE a.name = 'b' RETURN a.name ORDER BY point.distance({ORIGIN_95}, {POINT_A})", "runtime"),
        (geo_pairs(":Q", ":P", "b.name >= 'c'") + " LIMIT 1", "runtime"),
        (geo_pairs(":P", ":Q", "a.name = 'e'"), "runtime"),
        (geo_pairs("", "", "a.name < b.name") + " LIMIT 1", "runtime"),
    ],
)
def test_closest_pair_shapes_match_the_oracle_on_geo_graph(text, expected):
    engine, oracle = ordered_outcome(geo_graph(), parse_query(text))
    assert engine == oracle
    assert (engine if isinstance(engine, str) else "rows") == expected


def test_one_query_on_two_graphs_gives_each_graph_its_own_distances():
    query = parse_query(
        f"MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower, b.Tower, {CLOSEST} AS d ORDER BY {CLOSEST}"
    )
    rng = random.Random(31)
    # Both graphs number their nodes 0 to 11, with other points at those ids.
    first, second = random_geo_graph(rng, 12), random_geo_graph(rng, 12)
    results = [
        [tuple(cell_key(c) for c in row) for row in execute(graph, query).rows] for graph in (first, second, first)
    ]
    assert results[0] == results[2] == oracle_ordered_rows(first, query)
    assert results[1] == oracle_ordered_rows(second, query)
    assert results[0] != results[1]


def test_closest_towers_prepares_one_point_per_tower_and_side(shipped_dataset_path, corpus, monkeypatch):
    calls = []

    def counting(lat, lon):
        calls.append((lat, lon))
        return prepare_point(lat, lon)

    monkeypatch.setattr(executor, "prepare_point", counting)
    spec = next(s for s in corpus if s.id == "closest-towers")
    graph = load_dataset_file(shipped_dataset_path)
    execute(graph, parse_query(spec.ground_truth_query))
    # 13 towers make 78 pairs with a.Tower < b.Tower, and 12 towers reach
    # each side: each side's argument is prepared once per tower it meets.
    assert len(calls) == 24


def point_table_graph():
    return build_graph([({"P"}, {"lat": 32.5, "lon": -106.7, "ilat": 33, "ilon": -106, "s": "x", "b": True})])


OTHER_POINT = "point({latitude: 33, longitude: -106})"


def point_outcomes(graph, arg):
    """What ``point(arg)``, and ``point.distance`` with it on either side,
    return for the one node, or the error class and message they raise."""

    def outcome(expr):
        try:
            (cell,) = execute(graph, parse_query(f"MATCH (n:P) RETURN {expr}")).rows[0]
        except EngineError as exc:
            return f"{type(exc).__name__}: {exc}"
        return f"point({cell.latitude!r}, {cell.longitude!r})" if isinstance(cell, Point) else repr(cell)

    point = f"point({arg})"
    distances = [f"point.distance({point}, {OTHER_POINT})", f"point.distance({OTHER_POINT}, {point})"]
    return [outcome(point), *map(outcome, distances)]


_REQUIRES_KEYS = "RuntimeQueryError: point() requires exactly latitude and longitude"
_LATITUDE_95 = "RuntimeQueryError: latitude 95.0 out of range [-90, 90]"

# Frozen before point() became the only code that reads a map into a point:
# the argument of point(), what point() returns, and what point.distance
# returns with that point on either side of the constant (33, -106).
_POINT_TABLE = [
    ("{latitude: n.lat, longitude: n.lon}", "point(32.5, -106.7)", "85886.49642623762"),
    ("{longitude: n.lon, latitude: n.lat}", "point(32.5, -106.7)", "85886.49642623762"),
    ("{latitude: 1, longitude: n.lon, latitude: n.lat}", "point(32.5, -106.7)", "85886.49642623762"),
    ("{latitude: n.lat, longitude: n.lon, x: 1}", _REQUIRES_KEYS, _REQUIRES_KEYS),
    ("{latitude: n.lat}", _REQUIRES_KEYS, _REQUIRES_KEYS),
    ("{latitude: n.s, longitude: n.lon}", "None", "None"),
    ("{latitude: 'x', longitude: 0}", "None", "None"),
    ("{latitude: n.lat, longitude: n.b}", "None", "None"),
    ("{latitude: true, longitude: 0}", "None", "None"),
    ("{latitude: n.missing, longitude: n.lon}", "None", "None"),
    ("{latitude: null, longitude: 0}", "None", "None"),
    ("{latitude: n.ilat, longitude: n.ilon}", "point(33.0, -106.0)", "0.0"),
    ("{longitude: -106, latitude: 33}", "point(33.0, -106.0)", "0.0"),
    ("n.lat", "None", "None"),
    ("{latitude: 95, longitude: n.lon}", "point(95.0, -106.7)", _LATITUDE_95),
    ("{latitude: 95, longitude: 0}", "point(95.0, 0.0)", _LATITUDE_95),
    ("{latitude: n.lat, longitude: 1e308 * 10}", "point(32.5, inf)", "RuntimeQueryError: longitude inf is not finite"),
    (
        "{latitude: 0, longitude: 1e308 * 10 - 1e308 * 10}",
        "point(0.0, nan)",
        "RuntimeQueryError: longitude nan is not finite",
    ),
]


@pytest.mark.parametrize("arg, point, distance", _POINT_TABLE)
def test_point_and_distance_outcomes_are_pinned(arg, point, distance):
    assert point_outcomes(point_table_graph(), arg) == [point, distance, distance]


# An integer literal past float range (about 1.8e308), so past 64 bits too.
HUGE_INTEGER = "9" * 400


# These two tests keep the names they had when such a literal parsed and
# reached point() or mixed arithmetic at run time. Parsing now stops it
# first, so no integer that no float holds gets that far.
def test_point_coordinate_past_float_range_is_a_runtime_error(fixture_graph):
    with pytest.raises(ParseError, match="integer literal out of 64-bit range"):
        rows(
            fixture_graph,
            f"MATCH (t:Tower {{Tower: 4}}) RETURN point({{latitude: {HUGE_INTEGER}, longitude: t.Tower}})",
        )
    with pytest.raises(ParseError, match="integer literal out of 64-bit range"):
        rows(
            fixture_graph,
            "MATCH (a:Tower {Tower: 4}) RETURN point.distance("
            f"point({{longitude: 0, latitude: {HUGE_INTEGER}}}), point({{latitude: a.Lat, longitude: a.Long}}))",
        )


def test_float_arithmetic_past_float_range_is_a_runtime_error(fixture_graph):
    with pytest.raises(ParseError, match="integer literal out of 64-bit range"):
        rows(fixture_graph, f"MATCH (t:Tower {{Tower: 4}}) RETURN t.Lat + {HUGE_INTEGER}")
    with pytest.raises(ParseError, match="integer literal out of 64-bit range"):
        rows(fixture_graph, f"RETURN {HUGE_INTEGER} / 2.0")


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "expr, value",
    [
        (f"{INT64_MAX} - 1 + 1", INT64_MAX),
        (f"-{INT64_MAX} - 1", -(2**63)),
        (f"{2**62 - 1} * 2 + 1", INT64_MAX),
        (f"-{INT64_MAX}", -INT64_MAX),
    ],
)
def test_integer_arithmetic_at_the_64_bit_edges(expr, value):
    assert rows(PropertyGraph(), f"RETURN {expr} AS v") == (["v"], [(value,)])


@pytest.mark.parametrize(
    "expr",
    [
        f"{INT64_MAX} + 1",
        f"-{INT64_MAX} - 2",
        f"{2**62} * 2",
        f"-(-{INT64_MAX} - 1)",
        f"(-{INT64_MAX} - 1) / -1",
        f"t.Tower * {INT64_MAX}",
    ],
)
def test_integer_arithmetic_past_64_bits_is_a_runtime_error(fixture_graph, expr):
    with pytest.raises(RuntimeQueryError, match="integer overflow"):
        rows(fixture_graph, f"MATCH (t:Tower {{Tower: 4}}) RETURN {expr}")


def test_integer_literals_reach_exactly_the_64_bit_edges():
    g = build_graph([({"A"}, {"p": -(2**63)}), ({"A"}, {"p": INT64_MAX})])
    assert rows(g, "RETURN -9223372036854775808 AS v, 9223372036854775807 AS w") == (
        ["v", "w"],
        [(-(2**63), INT64_MAX)],
    )
    assert rows(g, "MATCH (n:A {p: -9223372036854775808}) RETURN n.p") == (["n.p"], [(-(2**63),)])
    assert rows(g, "MATCH (n:A {p: 009223372036854775807}) RETURN n.p") == (["n.p"], [(INT64_MAX,)])
    for query in [
        "RETURN 9223372036854775808",
        "RETURN -(9223372036854775808)",
        "MATCH (n:A {p: 9223372036854775808}) RETURN n",
        "MATCH (n:A {p: -9223372036854775809}) RETURN n",
        "MATCH (n:A) RETURN n LIMIT 99999999999999999999",
    ]:
        with pytest.raises(ParseError, match="integer literal out of 64-bit range"):
            rows(g, query)
    with pytest.raises(RuntimeQueryError, match="integer overflow"):
        rows(g, "RETURN --9223372036854775808")


def test_executor_matches_oracle_on_random_graphs_smoke():
    rng = random.Random(11)
    for _ in range(60):
        graph = random_graph(rng, max_nodes=12, max_rels=16)
        query = random_query_ast(rng)
        engine = execute(graph, query)
        keyed = Counter(tuple(cell_key(cell) for cell in row) for row in engine.rows)
        assert keyed == oracle_rows(graph, query), print_query(query)


def test_counted_return_matches_the_oracle():
    # count(v) of a node or relationship variable, alone or beside count(*),
    # with and without WHERE and DISTINCT: the RETURN that execute answers by
    # counting the bindings. random_query_ast never writes this shape.
    rng = random.Random(19)
    star = ReturnItem(FunctionCall("count", (), star=True), None)
    kinds = set()
    for _ in range(80):
        graph = random_graph(rng, max_nodes=10, max_rels=14)
        matches, variables = random_patterns(rng, max_total_edges=3)
        where = _random_predicate(rng, variables)
        for name in variables:
            kinds.add(name[0])  # generator edge variables are e0, e1, ...
            counted = ReturnItem(FunctionCall("count", (Variable(name),)), None)
            for items in [(counted,), (star, counted), (counted, star)]:
                for query in [Query(matches, w, d, items) for w in (None, where) for d in (False, True)]:
                    engine = Counter([tuple(cell_key(cell) for cell in row) for row in execute(graph, query).rows])
                    assert engine == oracle_rows(graph, query), print_query(query)
    assert kinds == {"v", "e"}
    g = small_graph()
    for text in [
        "MATCH (n:Nope) RETURN count(n)",
        "MATCH (n:Nope) RETURN DISTINCT count(*), count(n)",
        "MATCH (a:A)-[r:NOPE]->(b) RETURN count(r), count(*)",
        "MATCH (a:A)-[r]->(b) WHERE a.p > 5 RETURN count(r)",
    ]:
        query = parse_query(text)
        assert execute(g, query).rows == [(0,) * len(query.items)], text
        assert oracle_rows(g, query) == Counter([tuple(cell_key(0) for _ in query.items)]), text


# inf - inf: float arithmetic a model-written query can reach.
NAN_EXPR = "n.x * 1e308 * 10 - n.y * 1e308 * 10"


def nan_graph():
    """Rows of NAN_EXPR: nan, inf, 0.0, nan, null, null, nan."""
    nodes = []
    for name, x, y in [("a", 1, 1), ("b", 1, 0), ("c", 0, 0), ("d", 2, 1), ("e", None, 0), ("f", "s", 0), ("g", 3, 2)]:
        props = {"name": name, "y": y}
        if x is not None:
            props["x"] = x
        nodes.append(({"A"}, props))
    return build_graph(nodes)


def test_nan_is_one_group_for_distinct_and_count():
    g = nan_graph()
    _, data = rows(g, f"MATCH (n:A) RETURN DISTINCT {NAN_EXPR} AS v")
    assert [repr(v) for (v,) in data] == ["nan", "inf", "0.0", "None"]
    _, data = rows(g, f"MATCH (n:A) RETURN {NAN_EXPR} AS v, count(*) AS c")
    assert [(repr(v), c) for v, c in data] == [("nan", 3), ("inf", 1), ("0.0", 1), ("None", 2)]


def test_nan_sorts_as_the_largest_number():
    g = nan_graph()
    _, data = rows(g, f"MATCH (n:A) RETURN n.name ORDER BY {NAN_EXPR}")
    assert [name for (name,) in data] == ["c", "b", "a", "d", "g", "e", "f"]
    _, data = rows(g, f"MATCH (n:A) RETURN n.name ORDER BY {NAN_EXPR} DESC")
    assert [name for (name,) in data] == ["e", "f", "a", "d", "g", "b", "c"]
    _, data = rows(g, f"MATCH (n:A) RETURN n.name, {NAN_EXPR} AS v ORDER BY v LIMIT 3")
    assert [name for name, _ in data] == ["c", "b", "a"]
    # Across kinds: numbers, then NaN, then strings, booleans, and null last.
    nan = float("nan")
    values = ["s", None, True, nan, float("inf"), -1, 2.5]
    assert [repr(v) for v in sorted(values, key=sort_key)] == ["-1", "2.5", "inf", "nan", "'s'", "True", "None"]


def corpus_shapes(corpus) -> list[str]:
    queries = [spec.ground_truth_query for spec in corpus if spec.ground_truth_query]
    return queries + [
        "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]-(s) RETURN count(s)",
        "MATCH (s:Sensor)<-[:HAS_SENSOR]-(t:Tower {Tower: 3}) RETURN s.Name ORDER BY s.Name DESC",
        "MATCH (t:Tower {Tower: 99})-[:HAS_SENSOR]->(s:Sensor) RETURN s",
        "MATCH (a:Tower {Tower: 77}), (b:Tower {Tower: 78}) RETURN a.Tower, b.Tower",
    ]


def test_no_full_scans_for_corpus_shapes(fixture_graph, corpus, monkeypatch):
    queries = corpus_shapes(corpus)
    expected = [serialize_records(execute(fixture_graph, parse_query(q))) for q in queries]
    assert sum(text != "[]" for text in expected) >= len(queries) - 3

    def full_scan(self, *args):
        raise AssertionError("full scan during execute")

    monkeypatch.setattr(PropertyGraph, "relationships", full_scan)
    monkeypatch.setattr(PropertyGraph, "nodes", full_scan)
    assert [serialize_records(execute(fixture_graph, parse_query(q))) for q in queries] == expected
    with pytest.raises(AssertionError):
        execute(fixture_graph, parse_query("MATCH (n) RETURN count(n)"))

    # A labelled start node with an inline map reads an index bucket, not
    # every node of its label.
    point_lookups = [
        (q, text)
        for q, text in zip(queries, expected)
        if all(path.nodes[0].properties for clause in parse_query(q).matches for path in clause.paths)
    ]
    assert len({q for q, _ in point_lookups}) == 5 + 3
    monkeypatch.setattr(PropertyGraph, "nodes_with_label", full_scan)
    assert [serialize_records(execute(fixture_graph, parse_query(q))) for q, _ in point_lookups] == [t for _, t in point_lookups]
    with pytest.raises(AssertionError):
        execute(fixture_graph, parse_query("MATCH (t:Tower) RETURN count(t)"))


def test_corpus_shapes_reach_far_nodes_without_a_lookup_by_id(fixture_graph, corpus, monkeypatch):
    # An expansion indexes the store's node list; it never calls node().
    queries = corpus_shapes(corpus) + [
        "MATCH (s:Sensor)-[r]-(t:Tower:Tower) RETURN t.Tower, r LIMIT 3",
        "MATCH (s)<-[:HAS_SENSOR]-(t {Tower: 5}) RETURN s.Name",
    ]
    expected = [serialize_records(execute(fixture_graph, parse_query(q))) for q in queries]
    assert sum(text != "[]" for text in expected) >= len(queries) - 3

    def lookup(self, node_id):
        raise AssertionError("node() during execute")

    monkeypatch.setattr(PropertyGraph, "node", lookup)
    assert [serialize_records(execute(fixture_graph, parse_query(q))) for q in queries] == expected


def test_inline_map_lookup_equals_the_label_scan_for_every_kind():
    nodes = [({"A"}, {"k": value, "j": 0}) for value in [1, 1.0, True, "1", 0, -0.0, False, 2, "x", 1]]
    nodes += [({"A"}, {"j": 0}), ({"A", "B"}, {"k": 1, "j": 1}), ({"B"}, {"k": 1.0, "j": 0})]
    g = build_graph(nodes)
    for literal in ["1", "1.0", "true", "'1'", "0", "-0.0", "false", "null", "2.5"]:
        indexed = rows(g, f"MATCH (n:A {{k: {literal}, j: 0}}) RETURN n")
        scanned = rows(g, f"MATCH (n:A) WHERE n.k = {literal} AND n.j = 0 RETURN n")
        assert [n.id for (n,) in indexed[1]] == [n.id for (n,) in scanned[1]], literal
    assert [n.id for (n,) in rows(g, "MATCH (n:A {k: 1, j: 0}) RETURN n")[1]] == [0, 1, 9]
    # An equality test on null is unknown, so an inline null matches nothing.
    assert rows(g, "MATCH (n:A {k: null}) RETURN n")[1] == []


def test_errors_wait_for_a_row_to_reach_them():
    g = small_graph()
    # ORDER BY names are not checked when parsing; an unbound one fails per row.
    assert rows(g, "MATCH (n:C) RETURN n.p ORDER BY zz") == (["n.p"], [])
    with pytest.raises(SemanticError, match="variable 'zz' is not bound"):
        rows(g, "MATCH (n:A) RETURN n.p ORDER BY zz")
    # The parser rejects unknown functions, so build the AST directly.
    size = (ReturnItem(FunctionCall("size", (Variable("n"),)), None),)
    no_rows = Query(parse_query("MATCH (n:C) RETURN n").matches, None, False, size)
    assert execute(g, no_rows).rows == []
    some_rows = Query(parse_query("MATCH (n:A) RETURN n").matches, None, False, size)
    with pytest.raises(SemanticError, match=r"unknown function size\(\)"):
        execute(g, some_rows)
    # AND does not evaluate its right side once the left is false.
    assert rows(g, "MATCH (n:A) WHERE n.p = 0 AND n.p / 0 = 1 RETURN n") == (["n"], [])


def test_an_error_on_a_row_outside_limit_is_still_raised():
    g = build_graph([({"A"}, {"Tower": n}) for n in range(1, 6)])
    kept = "MATCH (a:A) RETURN a.Tower AS t ORDER BY a.Tower DESC LIMIT 1"
    assert rows(g, kept) == (["t"], [(5,)])
    with pytest.raises(RuntimeQueryError, match="division by zero"):
        rows(g, "MATCH (a:A) RETURN 1 / (a.Tower - 3) AS v ORDER BY a.Tower DESC LIMIT 1")
    with pytest.raises(RuntimeQueryError, match="division by zero"):
        rows(g, "MATCH (a:A) RETURN a.Tower, 1 / (a.Tower - 3) LIMIT 1")
    # LIMIT 0 keeps no row, yet every row is still projected.
    for limit_0 in ["LIMIT 0", "ORDER BY a.Tower LIMIT 0"]:
        with pytest.raises(RuntimeQueryError, match="division by zero"):
            rows(g, f"MATCH (a:A) RETURN 1 / (a.Tower - 3) AS v {limit_0}")


def test_an_unbound_return_variable_fails_under_limit_0():
    # The parser rejects the unbound name, so build the AST directly.
    g = small_graph()
    items = (ReturnItem(Variable("x"), None),)
    for matches in [(), parse_query("MATCH (n:A) RETURN n").matches]:
        for order_by in [(), (OrderItem(PropertyAccess("n", "p"), True),)]:
            with pytest.raises(SemanticError, match="variable 'x' is not bound"):
                execute(g, Query(matches, None, False, items, order_by, 0))


def test_a_where_that_fails_on_one_product_binding_fails_the_query():
    g = build_graph([({"A"}, {"p": n}) for n in range(1, 5)])
    one_pair = "MATCH (a:A), (b:A) WHERE a.p * 10 + b.p = 23 AND {} RETURN a.p, b.p"
    assert rows(g, one_pair.format("true")) == (["a.p", "b.p"], [(2, 3)])
    with pytest.raises(RuntimeQueryError, match="division by zero"):
        rows(g, one_pair.format("1 / 0 = 1"))
    # The parser rejects unknown functions, so build the AST directly.
    product = parse_query(one_pair.format("true"))
    size = Binary("AND", product.where.left, FunctionCall("size", (Variable("b"),)))
    with pytest.raises(SemanticError, match=r"unknown function size\(\)"):
        execute(g, Query(product.matches, size, False, product.items))
    # The binding that fails is the last one the product reaches.
    last = parse_query("MATCH (a:A), (b:A), (c:A) WHERE a.p + b.p + c.p < 12 OR 1 / 0 = 1 RETURN count(*)")
    with pytest.raises(RuntimeQueryError, match="division by zero"):
        execute(g, last)


def test_a_start_no_node_fits_ends_the_match_at_once():
    # Run apart, so a product that did run on (135^4 bindings) is cut by the
    # timeout rather than holding up the suite.
    code = """
import time
from graphqa import data_path
from graphqa.cypher import execute, parse_query
from graphqa.graph import load_dataset_file
graph = load_dataset_file(data_path("msa_dataset.jsonl"))
for text in [
    "MATCH (a),(b),(c),(e),(d:Nope) RETURN count(*)",
    "MATCH (a),(b),(c),(e),(d:Tower {Tower: 999}) RETURN count(*)",
    "MATCH (a),(b),(c),(e),(d {Tower: 999}) RETURN count(*)",
    "MATCH (a),(b),(c),(e) MATCH (d:Nope) RETURN a.Name",
]:
    query = parse_query(text)
    start = time.perf_counter()
    rows = execute(graph, query).rows
    print(rows, time.perf_counter() - start < 0.1)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(graphqa.__file__))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[(0,)] True"] * 3 + ["[] True"]


def test_an_empty_start_still_returns_what_an_empty_match_returns():
    g = small_graph()
    for text, expected in [
        ("MATCH (a), (n:Nope) RETURN count(*), count(a)", [(0, 0)]),
        ("MATCH (a), (n:A {p: 9}) RETURN a.name", []),
        ("MATCH (a)-[r]->(b), (n {p: 'x'}) RETURN b ORDER BY b.name LIMIT 2", []),
        ("MATCH (a:A), (b:A {p: 2}) RETURN a.name, b.name", [("a", "b"), ("b", "b")]),
    ]:
        assert rows(g, text)[1] == expected, text


@pytest.mark.parametrize(
    "text, error",
    [
        ("MATCH (n:A) WHERE 10 / n.v > 0 RETURN n.v * 9223372036854775807 * 2", "integer overflow"),
        ("MATCH (n:A) WHERE 10 / n.v > 0 RETURN DISTINCT n.v * 9223372036854775807 * 2", "integer overflow"),
        ("MATCH (n:A) WHERE 10 / n.v > 0 RETURN count(n.v * 9223372036854775807 * 2)", "integer overflow"),
        ("MATCH (n:A) WHERE 10 / n.v > 0 RETURN n.v * 9223372036854775807 * 2 AS x ORDER BY n.v", "integer overflow"),
        ("MATCH (n:A) WHERE 10 / n.v > 0 RETURN count(n)", "division by zero"),
    ],
    ids=["plain", "distinct", "count", "order-by", "counted"],
)
def test_two_faults_on_two_bindings_fail_as_runtime_whichever_comes_first(text, error):
    # The first binding (v = 1) passes WHERE and overflows in RETURN; the
    # second (v = 0) divides by zero in WHERE. Every query shape streams, so
    # a shape that evaluates its RETURN item on the first binding reports the
    # overflow. count(n) evaluates no RETURN item per binding, so it reports
    # the division by zero that WHERE meets on the second binding.
    g = build_graph([({"A"}, {"v": 1}), ({"A"}, {"v": 0})])
    with pytest.raises(RuntimeQueryError, match=error):
        rows(g, text)


@pytest.mark.parametrize(
    "text",
    [
        "MATCH (a),(b) RETURN count(*)",
        "MATCH (a),(b) RETURN DISTINCT a.Status",
        "MATCH (a),(b) RETURN a.Status, count(b.Unit)",
        "MATCH (a),(b) RETURN a.Name LIMIT 1",
        "MATCH (a),(b) RETURN a.Name ORDER BY b.Name LIMIT 1",
        "MATCH (a),(b) RETURN a.Name AS n ORDER BY n DESC LIMIT 3",
        "MATCH (a),(b) RETURN a.Name AS n ORDER BY n DESC, b.Name LIMIT 3",
    ],
)
def test_a_grouped_product_keeps_no_binding(shipped_dataset_path, text):
    # 18,225 bindings on the shipped graph; a group keeps its first values
    # and its counters, and ORDER BY ... LIMIT k keeps k rows, never the
    # bindings themselves.
    graph, query = load_dataset_file(shipped_dataset_path), parse_query(text)
    tracemalloc.start()
    try:
        execute(graph, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def bindings(graph, query):
    return [scope.copy() for scope in _matches(graph, query, _Work())]


def test_bindings_equal_a_post_filter_of_the_unfiltered_match():
    def outcome(run):
        try:
            return [list(binding.items()) for binding in run()]
        except EngineError as exc:
            return type(exc)

    rng = random.Random(20240817)
    compared = 0
    for _ in range(500):
        graph = random_graph(rng, max_nodes=30, max_rels=36)
        query = random_query_ast(rng, max_total_edges=3)
        if query.where is None:
            continue
        unfiltered = Query(query.matches, None, query.distinct, query.items, query.order_by, query.limit)
        where = _compile(query.where)
        expected = outcome(lambda: [b for b in bindings(graph, unfiltered) if where(b) is True])
        assert outcome(lambda: bindings(graph, query)) == expected, print_query(query)
        compared += 1
    assert compared > 250


class _Tag(str):
    pass


# Frozen from value_less_than and value_equals before either had a fast path
# for two values of one plain type. T is true, F false, - unknown (None);
# row i, column j is f(values[i], values[j]), where values are these and
# nodes 0 and 1 of a graph.
_CMP_VALUES = [True, False, 1, 1.0, 2, float("nan"), "b", _Tag("b"), _Tag("a"), None]
_LESS_THAN = [
    "FF----------",
    "TF----------",
    "--FFTF------",
    "--FFTF------",
    "--FFFF------",
    "--FFFF------",
    "------FFF---",
    "------FFF---",
    "------TTF---",
    "------------",
    "------------",
    "------------",
]
_EQUALS = [
    "TF----------",
    "FT----------",
    "--TTFF------",
    "--TTFF------",
    "--FFTF------",
    "--FFFF------",
    "------TTF---",
    "------TTF---",
    "------FFT---",
    "------------",
    "----------TF",
    "----------FT",
]


@pytest.mark.parametrize("compare, table", [(value_less_than, _LESS_THAN), (value_equals, _EQUALS)])
def test_mixed_type_comparisons_are_pinned(compare, table):
    g = build_graph([({"A"}, {}), ({"A"}, {})])
    values = [*_CMP_VALUES, g.node(0), g.node(1)]
    code = {True: "T", False: "F", None: "-"}
    got = ["".join(code[compare(a, b)] for b in values) for a in values]
    assert got == table


# --- budgets ---------------------------------------------------------------------


def test_each_stage_counts_what_it_examines_in_bulk():
    # 0 -> 1, 0 -> 2, 1 -> 2 and a self-loop on 2; nodes 0 and 1 are A.
    g = build_graph([({"A"}, {}), ({"A"}, {}), ({"B"}, {})], [(0, "R", 1), (0, "R", 2), (1, "S", 2), (2, "R", 2)])
    for text, counts in [
        # A scan adds its pool per item it pulls: 2, then 2 per a.
        ("MATCH (a:A), (b:A) RETURN count(*)", [2, 4]),
        # An expansion adds the adjacency length of each node it expands:
        # 2 + 1 outgoing from the A nodes, then 1 each from b = 1, 2, 2.
        ("MATCH (a:A)-->(b)-->(c) RETURN count(*)", [2, 3, 3]),
        # Undirected: every relationship at the node, a self-loop once.
        ("MATCH (c:B)-[r]-(d) RETURN count(*)", [1, 3]),
        # A start bound earlier examines the one node it is bound to.
        ("MATCH (a:A)-->(b) MATCH (b)-->(c) RETURN count(*)", [2, 3, 3, 3]),
    ]:
        work = executor._Work()
        sum(1 for _ in executor._matches(g, parse_query(text), work))
        assert work.counts == counts, text
        assert work.total == sum(counts)


def test_a_three_way_product_of_the_shipped_graph_answers(shipped_dataset_path):
    graph = load_dataset_file(shipped_dataset_path)
    assert rows(graph, "MATCH (a),(b),(c) RETURN count(*)")[1] == [(135**3,)]


def test_closest_pair_at_400_towers_answers_on_a_tenth_of_the_work_limit(corpus, monkeypatch):
    # 400 + 400 x 400 candidates, about a twenty-sixth of the work limit.
    graph = load_dataset(serialize_dataset(generate_msa_fixture(GeneratorConfig(tower_count=400, attached_sensors=400))))
    (query,) = [parse_query(spec.ground_truth_query) for spec in corpus if spec.id == "closest-towers"]
    expected = execute(graph, query).rows
    monkeypatch.setattr(executor, "_WORK_LIMIT", executor._WORK_LIMIT // 10)
    assert execute(graph, query).rows == expected
    assert len(expected) == 1


def test_a_four_way_product_fails_as_budget_within_a_bounded_time(shipped_dataset_path, monkeypatch):
    # 135**4 = 332M bindings, unbounded without a budget. Each limit is
    # lowered in turn, so each cuts the product well inside a second.
    graph = load_dataset_file(shipped_dataset_path)
    four_way = "MATCH (a),(b),(c),(e) RETURN count(*)"
    for work_limit, seconds, reason in [(100_000, 60.0, "candidates"), (10**12, 0.1, "ran past")]:
        monkeypatch.setattr(executor, "_WORK_LIMIT", work_limit)
        monkeypatch.setattr(executor, "_SECONDS_LIMIT", seconds)
        for text in [four_way, "MATCH (a),(b),(c),(e) RETURN a.Name LIMIT 1", "MATCH (a)--(b), (c), (e)--(f) RETURN b"]:
            start = time.perf_counter()
            with pytest.raises(BudgetError, match=reason) as raised:
                rows(graph, text)
            assert time.perf_counter() - start < 1.5, text
            assert raised.value.kind == "budget"
        _, output, why = run_stage1(graph, four_way)
        assert (output, why.split(":")[0]) == (NAN_SENTINEL, "budget")
    # Past the limit by one candidate fails; at it, the query answers.
    monkeypatch.setattr(executor, "_WORK_LIMIT", 135 + 135 * 135)
    assert rows(graph, "MATCH (a),(b) RETURN count(*)")[1] == [(135 * 135,)]
    monkeypatch.setattr(executor, "_WORK_LIMIT", 135 + 135 * 135 - 1)
    with pytest.raises(BudgetError):
        rows(graph, "MATCH (a),(b) RETURN count(*)")
