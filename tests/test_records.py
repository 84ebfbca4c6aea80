import hashlib
import math
import random

import pytest

from generators import build_graph
from graphqa.cypher import canonicalize_query, execute, parse_query, serialize_records
from graphqa.cypher.records import Point, ResultSet, render_value
from graphqa.graph import load_dataset_file
from graphqa.graph.store import GraphStats, Node, Relationship
from graphqa.llm import CompletionRequest, CypherCandidate, TranscriptEntry

REFERENCE_RECORD = "[<Record Lat=32.58088351 Long=-106.7533307>]"


def test_reference_record_bit_exact(fixture_graph):
    out = serialize_records(
        execute(fixture_graph, parse_query("MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"))
    )
    assert out == REFERENCE_RECORD
    assert len(out) == 44


def test_empty_result_is_bracket_pair():
    assert serialize_records(ResultSet(columns=["n"], rows=[])) == "[]"


def test_two_row_result():
    rs = ResultSet(columns=["n"], rows=[(1,), (2,)])
    assert serialize_records(rs) == "[<Record n=1>, <Record n=2>]"


def test_value_renderings():
    assert render_value(None) == "None"
    assert render_value(True) == "True"
    assert render_value(False) == "False"
    assert render_value(4) == "4"
    assert render_value(30.0) == "30.0"
    assert render_value(32.58088351) == "32.58088351"
    assert render_value("hello") == "'hello'"
    assert render_value(Point(1.5, -2.0)) == "point({latitude: 1.5, longitude: -2.0})"


def test_points_are_immutable_values():
    # WHERE point(...) = point(...) compares points by value.
    assert Point(1.5, -2.0) == Point(1.5, -2.0) and hash(Point(1.5, -2.0)) == hash(Point(1.5, -2.0))
    assert Point(1.5, -2.0) != Point(-2.0, 1.5)
    assert Point(1.5, -2.0) != (1.5, -2.0) and (1.5, -2.0) != Point(1.5, -2.0)
    assert repr(Point(1.5, -2.0)) == "Point(latitude=1.5, longitude=-2.0)"
    with pytest.raises(AttributeError):
        Point(1.5, -2.0).latitude = 0.0


RECORDS = [
    (ResultSet, (["n"],), {"rows": ()}),
    (GraphStats, (1, 0, 2, {"Tower": 1}), {}),
    (CompletionRequest, ("m", "p"), {}),
    (TranscriptEntry, ("m", "p", "r"), {"timestamp": ""}),
    (CypherCandidate, (None,), {"extraction_method": None}),
]


@pytest.mark.parametrize("record, args, defaults", RECORDS, ids=[r.__name__ for r, _, _ in RECORDS])
def test_plain_records_keep_their_signatures_and_are_read_only(record, args, defaults):
    by_position = record(*args)
    by_keyword = record(**dict(zip(record._fields, args)))
    assert by_position == by_keyword and tuple(by_position) == args + tuple(defaults.values())
    for name, value in defaults.items():
        assert getattr(by_position, name) == value
    with pytest.raises(AttributeError):
        setattr(by_position, record._fields[0], None)


def test_float_rendering_round_trips():
    rng = random.Random(3)
    for _ in range(500):
        value = rng.uniform(-1e6, 1e6) * (10 ** rng.randint(-6, 6))
        assert float(render_value(value)) == value


def test_node_rendering_is_deterministic():
    g = build_graph([({"Sensor", "Device"}, {"Name": "Temp-T08", "SensorId": 1042})])
    out = serialize_records(execute(g, parse_query("MATCH (n) RETURN n")))
    assert out == (
        "[<Record n=<Node id=0 labels=frozenset({'Device', 'Sensor'}) "
        "properties={'Name': 'Temp-T08', 'SensorId': 1042}>>]"
    )


def test_relationship_rendering():
    g = build_graph([({"A"}, {}), ({"B"}, {})], [(0, "R", 1, {"w": 2})])
    out = serialize_records(execute(g, parse_query("MATCH (x)-[e:R]->(y) RETURN e")))
    assert out == "[<Record e=<Relationship id=0 type='R' start=0 end=1 properties={'w': 2}>>]"


class TaggedInt(int):
    def __repr__(self):
        return f"TaggedInt({int(self)})"


class TaggedStr(str):
    def __repr__(self):
        return f"TaggedStr({str(self)!r})"


SCALARS = [True, False, TaggedInt(5), TaggedStr("sub"), 0, 42, -0.0, 2.5, math.inf, -math.inf, math.nan]
SCALARS += [2**63 - 1, -(2**63), "", "it's", 'say "hi"', None]
EVERY_KIND = {f"k{i}": value for i, value in enumerate(SCALARS) if value is not None}
CELLS = SCALARS + [
    Point(1.5, -2.0),
    Node(3, frozenset({"Sensor", "Device"}), EVERY_KIND),
    Relationship(4, 3, 0, "HAS", EVERY_KIND),
]


def reference_render(value):
    """A cell rendered with the node and relationship formula written out in
    full: every label set, property key and relationship type made afresh for
    each value, none of them memoized."""
    if isinstance(value, Node):
        labels = "frozenset({" + ", ".join(repr(x) for x in sorted(value.labels)) + "})"
        return f"<Node id={value.id} labels={labels} properties={reference_map(value.properties)}>"
    if isinstance(value, Relationship):
        return (
            f"<Relationship id={value.id} type={value.rel_type!r} "
            f"start={value.src} end={value.dst} properties={reference_map(value.properties)}>"
        )
    return render_value(value)


def reference_map(properties):
    return "{" + ", ".join(f"{key!r}: {render_value(val)}" for key, val in properties.items()) + "}"


def per_row_reference(result):
    """The record text built row by row, one f-string per field."""
    if not result.rows:
        return "[]"
    records = []
    for row in result.rows:
        fields = " ".join(f"{col}={reference_render(cell)}" for col, cell in zip(result.columns, row))
        records.append(f"<Record {fields}>")
    return "[" + ", ".join(records) + "]"


def test_subclass_cells_render_through_render_value():
    assert render_value(TaggedInt(5)) == "TaggedInt(5)"
    assert render_value(TaggedStr("sub")) == "TaggedStr('sub')"
    out = serialize_records(ResultSet(columns=["i", "s"], rows=[(TaggedInt(5), TaggedStr("sub"))]))
    assert out == "[<Record i=TaggedInt(5) s=TaggedStr('sub')>]"


@pytest.mark.parametrize("width", [1, 2, 3])
def test_serialization_equals_the_per_row_reference(width):
    columns = ["n", "Name", "count(*)"][:width]
    # Every cell in every column, then a seeded mix.
    rows = [tuple(CELLS[(i + j) % len(CELLS)] for j in range(width)) for i in range(len(CELLS))]
    rng = random.Random(width)
    rows += [tuple(rng.choice(CELLS) for _ in range(width)) for _ in range(60)]
    for count in (0, 1, 2, len(rows)):
        result = ResultSet(columns=columns, rows=rows[:count])
        assert serialize_records(result) == per_row_reference(result)


class TaggedFloat(float):
    pass


PLAIN = [0, 42, -(2**63), 2.5, -0.0, math.inf, math.nan, "", "it's", 'say "hi"', "Tower 4"]
COLUMN_KINDS = {
    "plain": PLAIN,
    "ints": [0, 1, -7, 2**63 - 1],
    "strs": ["a", "", "it's", "\u00e9\n"],
    "floats": [0.1, -1e300, math.nan, 3.0],
    "mixed": PLAIN + [None, True, False, Point(1.5, -2.0), CELLS[-2]],
    "one None": PLAIN + [None],
    "one bool": PLAIN + [False],
    "subclasses": [TaggedInt(1), TaggedStr("x"), TaggedFloat(2.5)],
    "one subclass": PLAIN + [TaggedStr("x")],
}


@pytest.mark.parametrize("kinds", [("plain",), ("mixed",), ("subclasses",), tuple(COLUMN_KINDS)])
def test_columns_render_as_render_value_renders_each_cell(kinds):
    # A column of plain str, int and float cells maps repr over them; any
    # other column, one odd cell among plain ones included, renders per cell.
    length = max(len(COLUMN_KINDS[kind]) for kind in kinds)
    columns = [[COLUMN_KINDS[kind][i % len(COLUMN_KINDS[kind])] for i in range(length)] for kind in kinds]
    rows = list(zip(*columns))
    for count in (1, 2, length):
        result = ResultSet(columns=list(kinds), rows=rows[-count:])
        assert serialize_records(result) == per_row_reference(result), (kinds, count)


# Text that repr quotes, escapes or leaves alone, and that a format string
# would read as a directive.
ODD_TEXT = ["it's", 'say "hi"', 'a\'b"c', "back\\slash", "100%", "%s %(k)s", "{x}", "{{}}"]
ODD_TEXT += ["caf\u00e9", "\U0001F600", "tab\t\n"]
ODD_MAP = {text: text for text in ODD_TEXT}
# Label sets given out of order, equal sets built twice, and one of odd text.
LABEL_SETS = [
    frozenset(["Zeta", "alpha", "Beta"]),
    frozenset(["Sensor"]),
    frozenset(["Beta", "Zeta", "alpha"]),
    frozenset(["Sensor"]),
    frozenset(ODD_TEXT),
    frozenset(),
]
PROPERTY_MAPS = [{}, EVERY_KIND, ODD_MAP, {"Name": "Temp-T08", "SensorId": 1042}, {"z": -0.0, "a": 0.0}]
GRAPH_CELLS = [
    Node(i, labels, PROPERTY_MAPS[i % len(PROPERTY_MAPS)]) for i, labels in enumerate(LABEL_SETS)
] + [
    Relationship(10 + i, i, i + 1, rel_type, PROPERTY_MAPS[i % len(PROPERTY_MAPS)])
    for i, rel_type in enumerate(["HAS_SENSOR", "R", "HAS_SENSOR", *ODD_TEXT])
]


@pytest.mark.parametrize("cell", GRAPH_CELLS, ids=lambda cell: f"{type(cell).__name__}-{cell.id}")
def test_node_and_relationship_text_equals_the_reference_formula(cell):
    assert render_value(cell) == reference_render(cell)
    assert serialize_records(ResultSet(columns=["x"], rows=[(cell,)])) == per_row_reference(
        ResultSet(columns=["x"], rows=[(cell,)])
    )


@pytest.mark.parametrize("width", [1, 2, 3])
def test_graph_columns_equal_the_reference_formula(width):
    # Several label sets, relationship types and property maps share each
    # column, beside every scalar kind, so the memos of one call are reused.
    cells = GRAPH_CELLS + CELLS
    rng = random.Random(100 + width)
    rows = [tuple(rng.choice(cells) for _ in range(width)) for _ in range(120)]
    rows += [tuple(GRAPH_CELLS[(i + j) % len(GRAPH_CELLS)] for j in range(width)) for i in range(len(GRAPH_CELLS))]
    for count in (1, 2, len(rows)):
        result = ResultSet(columns=["n", "r", "m"][:width], rows=rows[:count])
        assert serialize_records(result) == per_row_reference(result)


# The shipped graph's two widest renderings, pinned by length and SHA-256.
SHIPPED_RENDERINGS = [
    ("MATCH (n) RETURN n", 30_501, "4eb8db9f0ce5cb8db61f9e0b48fddd84f925732509f84b7f260a7f4ac0c6d559"),
    (
        "MATCH (n)-[r]-(m) RETURN n, r, m",
        119_302,
        "c453bb4ca4679781b8bfcf1cb4af4f13835b03800161f1022018620deceeca10",
    ),
]


@pytest.mark.parametrize("query, length, digest", SHIPPED_RENDERINGS)
def test_shipped_graph_renders_unchanged(shipped_dataset_path, query, length, digest):
    result = execute(load_dataset_file(shipped_dataset_path), parse_query(query))
    out = serialize_records(result)
    assert out == per_row_reference(result)
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (length, digest)


def test_canonicalize_collapses_whitespace_and_semicolon():
    assert (
        canonicalize_query("MATCH  (t:Tower)\n RETURN t ;")
        == "MATCH (t:Tower) RETURN t"
    )


def test_canonicalize_idempotent_on_random_inputs():
    rng = random.Random(17)
    pieces = ["MATCH", "(t:Tower)", "RETURN", "t.Lat", ";", "\n", "\t", "  ", "AS", "Lat", ","]
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 20)))
        once = canonicalize_query(text)
        assert canonicalize_query(once) == once


def test_canonicalize_preserves_case():
    assert canonicalize_query("match (T:tower) RETURN T") == "match (T:tower) RETURN T"
