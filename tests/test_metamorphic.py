"""Metamorphic relations over the queries small models really wrote.

The queries are engine-scaled's 43 texts: each distinct query extracted from
a stage-1 reply in the shipped transcripts, then each corpus reference
query. They run on the shipped graph and on a generated one of 100 towers
and 2,000 sensors, and each result is checked against a slower twin:

- **LIMIT.** A query without LIMIT (an existing LIMIT is stripped to get
  it) and the same query with ``LIMIT k`` appended, for k in 0, 1 and 3:
  the limited rows are the first k rows of the unlimited result, and a
  query that fails, fails the same way under any LIMIT. This covers the
  plain, ORDER BY and heap paths of ``execute``.
- **Rendering.** ``serialize_records`` equals the record text built cell by
  cell with ``render_value``, so the column-wise ``repr`` path renders as
  the per-cell fallback does.

Four more take each query that runs and has no aggregate and no DISTINCT,
with its ORDER BY and LIMIT stripped, and rewrite its parsed form:

- **Count.** ``RETURN count(*)`` gives one row, the row count. This covers
  the count-only group.
- **Ties.** ``ORDER BY 0``, ascending or descending, ties every row, so it
  gives the unordered rows, and ``ORDER BY 0 LIMIT k`` (k in 1 and 3) their
  first k. This covers the stable sort and the heap.
- **Alias.** The first item returned ``AS k0`` and ordered ``BY k0`` gives
  what ordering by its expression gives, in either direction, with and
  without ``LIMIT 3``. Ordering by a column name takes the projected-row
  path of ``execute``, where ordering by a pattern read takes the binding's.
- **A column that can fail.** Ordered by its own ORDER BY, or else by its
  first item descending, with and without ``LIMIT 3``, a query over a tower
  ``x`` gains the column ``x.Tower + 0``. Its ORDER BY moves from the
  binding's path to the projected-row path, and the other columns' rows
  stay as they were, ties in row order. Closest pairs are checked on the
  shipped graph only.

Five more run on the shipped graph and on generated ones of 100 and 400
towers, and compare rows as bags, each query with its LIMIT stripped and
taken once per distinct MATCH and WHERE. The
closest-pair texts, which pair every tower with every other, stay off the
400-tower graph, and off the 100-tower one for the label and partition
relations.

- **Inline map.** A node's inline map ``{k: v}`` gives what ``WHERE x.k = v``
  gives, and ``WHERE v = x.k``: the equality index against a filter.
- **Label.** A ``(t:Tower)`` without a map gives what ``(t) WHERE t.Tower >=
  0`` gives, one such node at a time: the label's pool against a scan of
  every node. Only towers have a ``Tower`` key, as the test checks.
- **Direction.** Of a query with no aggregate and no DISTINCT, a path read
  backwards gives the same rows, and a ``HAS_SENSOR`` step made undirected
  gives the rows of both of its directions: each node's outgoing against its
  incoming relationships.
- **Count of a variable.** ``RETURN count(v)`` of each pattern variable of
  such a query gives one row, the row count: the count-only group's other
  shape.
- **WHERE partition.** Of such a query, the rows ``WHERE p`` keeps and the
  rows ``WHERE NOT (p)`` keeps make the rows with no ``p``, for ``p`` its own
  WHERE, which is never null. Per node ``x`` and label, ``p`` says that
  ``x``'s key of the label (``Tower``, ``SensorId``) is even; only the
  label's nodes have the key, so ``p`` is null exactly elsewhere, and the
  two parts make the rows with ``x`` given the label: a null ``p`` is in
  neither part.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from functools import cache

import pytest

from graphqa import data_path
from graphqa.cypher import execute, parse_query, serialize_records
from graphqa.cypher.ast import (
    Binary,
    FunctionCall,
    Literal,
    NodePattern,
    OrderItem,
    PropertyAccess,
    Query,
    ReturnItem,
    Unary,
    Variable,
    contains_aggregate,
    pattern_variables,
)
from graphqa.cypher.records import ResultSet, render_value
from graphqa.errors import EngineError
from graphqa.evaluation import load_corpus
from graphqa.graph import GeneratorConfig, generate_msa_fixture, load_dataset_file
from graphqa.llm import Transcript, extract_cypher
from graphqa.pipeline import load_templates

LIMITS = (0, 1, 3)
TIED_LIMITS = (1, 3)
COUNT_STAR = ReturnItem(FunctionCall("count", (), star=True), None, "count(*)")
_TRAILING_LIMIT = re.compile(r"\s+LIMIT\s+\d+\s*$")


def _query_texts() -> list[str]:
    """Engine-scaled's mix: the distinct task-1 extractions, then the reference queries."""
    task1_prefix = load_templates()["task1"].body.split("{question}")[0]
    texts: list[str] = []
    for name in sorted(os.listdir(data_path("transcripts"))):
        for entry in Transcript.load(data_path("transcripts", name)).entries:
            if entry.prompt.startswith(task1_prefix):
                query = extract_cypher(entry.response).extracted_query
                if query is not None and query not in texts:
                    texts.append(query)
    for spec in load_corpus(data_path("corpus.json")):
        if spec.ground_truth_query not in texts:
            texts.append(spec.ground_truth_query)
    return texts


QUERIES = _query_texts()


@cache
def _graph(name: str):
    if name == "shipped":
        return load_dataset_file(data_path("msa_dataset.jsonl"))
    if name == "100 towers":
        return generate_msa_fixture(GeneratorConfig(tower_count=100, attached_sensors=2000, seed=0))
    return generate_msa_fixture(GeneratorConfig(tower_count=400, attached_sensors=4000, seed=4))


@pytest.fixture(scope="module", params=["shipped", "100 towers"])
def graph(request):
    return _graph(request.param)


def _outcome(graph, query: str | Query):
    """The result set of ``query``, or the kind and message of the error it raises."""
    try:
        return execute(graph, parse_query(query) if isinstance(query, str) else query)
    except EngineError as exc:
        return (exc.kind, str(exc))


def _plain(graph, text: str) -> tuple[Query, list] | None:
    """``text`` parsed without its ORDER BY and LIMIT, and its rows; None if it
    does not run, or has an aggregate or DISTINCT."""
    try:
        query = parse_query(text)._replace(order_by=(), limit=None)
    except EngineError:
        return None
    if query.distinct or any(contains_aggregate(item.expr) for item in query.items):
        return None
    result = _outcome(graph, query)
    return (query, list(result.rows)) if isinstance(result, ResultSet) else None


def test_the_mix_is_engine_scaleds():
    shipped = load_dataset_file(data_path("msa_dataset.jsonl"))
    outcomes = [_outcome(shipped, text) for text in QUERIES]
    kinds = Counter("ok" if isinstance(outcome, ResultSet) else outcome[0] for outcome in outcomes)
    assert kinds == {"ok": 37, "parse": 5, "semantic": 1}
    assert sum(bool(_TRAILING_LIMIT.search(text)) for text in QUERIES) == 3
    assert sum(" ORDER BY " in text for text in QUERIES) == 4


@pytest.mark.parametrize("text", QUERIES)
def test_limit_k_keeps_the_first_k_rows(graph, text):
    unlimited = _TRAILING_LIMIT.sub("", text)
    assert " LIMIT " not in unlimited
    whole = _outcome(graph, unlimited)
    for k in LIMITS:
        limited = _outcome(graph, f"{unlimited} LIMIT {k}")
        if isinstance(whole, ResultSet):
            assert limited.columns == whole.columns
            assert list(limited.rows) == list(whole.rows)[:k]
        else:
            assert limited == whole


@pytest.mark.parametrize("text", QUERIES)
def test_records_render_as_their_cells_do(graph, text):
    result = _outcome(graph, text)
    if not isinstance(result, ResultSet):
        assert result[0] in ("parse", "semantic")
        return
    records = [
        "<Record " + " ".join(f"{name}={render_value(cell)}" for name, cell in zip(result.columns, row)) + ">"
        for row in result.rows
    ]
    assert serialize_records(result) == "[" + ", ".join(records) + "]"


def test_the_rewrites_take_28_queries_on_each_graph(graph):
    plain = [found for found in (_plain(graph, text) for text in QUERIES) if found is not None]
    assert len(plain) == 28
    assert sum(len(rows) > 1 for _, rows in plain) >= 15  # rows that ORDER BY 0 ties
    assert sum(_tower_variable(query) is not None for query, _ in plain) == 27  # can gain x.Tower + 0


@pytest.mark.parametrize("text", QUERIES)
def test_count_star_gives_the_row_count(graph, text):
    plain = _plain(graph, text)
    if plain is not None:
        query, rows = plain
        assert list(execute(graph, query._replace(items=(COUNT_STAR,))).rows) == [(len(rows),)]


@pytest.mark.parametrize("text", QUERIES)
def test_ordering_by_a_constant_keeps_row_order(graph, text):
    plain = _plain(graph, text)
    if plain is None:
        return
    query, rows = plain
    for ascending in (True, False):
        tied = query._replace(order_by=(OrderItem(Literal(0), ascending, "0"),))
        assert list(execute(graph, tied).rows) == rows
        for k in TIED_LIMITS:
            assert list(execute(graph, tied._replace(limit=k)).rows) == rows[:k]


@pytest.mark.parametrize("text", QUERIES)
def test_ordering_by_an_alias_is_ordering_by_its_expression(graph, text):
    plain = _plain(graph, text)
    if plain is None:
        return
    query, _ = plain
    first, *rest = query.items
    aliased = query._replace(items=(first._replace(alias="k0"), *rest))
    for ascending in (True, False):
        by_alias = aliased._replace(order_by=(OrderItem(Variable("k0"), ascending, "k0"),))
        by_expr = aliased._replace(order_by=(OrderItem(first.expr, ascending, first.source_text),))
        for limit in (None, 3):
            assert _outcome(graph, by_alias._replace(limit=limit)) == _outcome(graph, by_expr._replace(limit=limit))


def _tower_variable(query: Query) -> str | None:
    """The first named node of ``query`` labelled ``Tower``, if any."""
    return next((node.variable for _, node in _node_patterns(query) if node.variable and "Tower" in node.labels), None)


@pytest.mark.parametrize("text", QUERIES)
def test_a_column_that_can_fail_leaves_the_other_columns_rows(graph, text):
    if "point.distance" in text and graph is not _graph("shipped"):
        return  # a closest pair orders every pair of towers: 10,000 on 100 towers
    plain = _plain(graph, text)
    tower = plain and _tower_variable(plain[0])
    if not tower:
        return
    query = plain[0]
    first = query.items[0]
    order_by = parse_query(text).order_by or (OrderItem(first.expr, False, first.source_text),)
    extra = ReturnItem(Binary("+", PropertyAccess(tower, "Tower"), Literal(0)), None, f"{tower}.Tower + 0")
    for limit in (None, 3):
        ordered = query._replace(order_by=order_by, limit=limit)
        whole, wider = execute(graph, ordered), execute(graph, ordered._replace(items=(*query.items, extra)))
        assert wider.columns == [*whole.columns, extra.source_text]
        assert [row[:-1] for row in wider.rows] == list(whole.rows)


# --- relations compared as bags, on three graphs -------------------------------

BAG_GRAPHS = ["shipped", "100 towers", "400 towers"]


def _parsed(graph_name: str, pairs_up_to: str = "100 towers") -> dict[Query, str]:
    """Per distinct MATCH, WHERE and plainness (no aggregate, no DISTINCT),
    the first query that parses, with its LIMIT stripped, and its text; the
    closest-pair texts only on graphs up to ``pairs_up_to``. The rewrites
    change only the patterns, the WHERE and, for counts, the items."""
    parsed: dict[tuple, tuple[Query, str]] = {}
    for text in QUERIES:
        if "point.distance" in text and BAG_GRAPHS.index(graph_name) > BAG_GRAPHS.index(pairs_up_to):
            continue
        try:
            query = parse_query(text)._replace(limit=None)
        except EngineError:
            continue
        parsed.setdefault((query.matches, query.where, _is_plain(query)), (query, text))
    return dict(parsed.values())


def _bag(graph, query: Query):
    """The columns and the rows, as a bag, of ``query``; or its error."""
    result = _outcome(graph, query)
    if not isinstance(result, ResultSet):
        return result
    return result.columns, Counter(map(repr, result.rows))


def _and(query: Query, condition) -> Query:
    return query._replace(where=condition if query.where is None else Binary("AND", query.where, condition))


def _with_path(query: Query, m: int, p: int, path) -> Query:
    """``query`` with path ``p`` of its MATCH clause ``m`` replaced."""
    clause = query.matches[m]
    clause = clause._replace(paths=(*clause.paths[:p], path, *clause.paths[p + 1 :]))
    return query._replace(matches=(*query.matches[:m], clause, *query.matches[m + 1 :]))


def _with_node(query: Query, where: tuple[int, int, int], node: NodePattern) -> Query:
    """``query`` with the node pattern at (clause, path, position) replaced."""
    m, p, n = where
    path = query.matches[m].paths[p]
    return _with_path(query, m, p, path._replace(nodes=(*path.nodes[:n], node, *path.nodes[n + 1 :])))


def _node_patterns(query: Query):
    for m, clause in enumerate(query.matches):
        for p, path in enumerate(clause.paths):
            for n, node in enumerate(path.nodes):
                yield (m, p, n), node


def _inline_map_twins(query: Query):
    """Per node with an inline map, the query with the map moved to WHERE, as
    ``x.k = v`` and as ``v = x.k``."""
    for where, node in _node_patterns(query):
        if not node.properties:
            continue
        name = node.variable or f"m{where[0]}_{where[1]}_{where[2]}"
        bare = _with_node(query, where, node._replace(variable=name, properties=()))
        for flipped in (False, True):
            twin = bare
            for key, value in node.properties:
                left, right = PropertyAccess(name, key), value
                twin = _and(twin, Binary("=", *((right, left) if flipped else (left, right))))
            yield twin


def _unlabelled_twins(query: Query):
    """Per ``(x:Tower)`` without a map, the query with ``(x) WHERE x.Tower >= 0``."""
    for where, node in _node_patterns(query):
        if node.labels == ("Tower",) and not node.properties:
            name = node.variable or f"m{where[0]}_{where[1]}_{where[2]}"
            bare = _with_node(query, where, node._replace(variable=name, labels=()))
            yield _and(bare, Binary(">=", PropertyAccess(name, "Tower"), Literal(0)))


_FLIP = {"right": "left", "left": "right", "any": "any"}


def _direction_twins(query: Query):
    """Per path with a directed ``HAS_SENSOR`` step: the path read backwards,
    and per such step, the query with it undirected and with it flipped."""
    for m, clause in enumerate(query.matches):
        for p, path in enumerate(clause.paths):
            steps = [i for i, edge in enumerate(path.edges) if edge.rel_type == "HAS_SENSOR" and edge.direction != "any"]
            if not steps:
                continue
            backwards = path._replace(
                nodes=path.nodes[::-1], edges=tuple(e._replace(direction=_FLIP[e.direction]) for e in path.edges[::-1])
            )
            yield "backwards", _with_path(query, m, p, backwards), None
            for i in steps:
                edge = path.edges[i]

                def step(direction, path=path, i=i, edge=edge):
                    edges = (*path.edges[:i], edge._replace(direction=direction), *path.edges[i + 1 :])
                    return _with_path(query, m, p, path._replace(edges=edges))

                yield "undirected", step("any"), step(_FLIP[edge.direction])


def _count_twins(query: Query):
    """Per pattern variable ``v``, the query returning only ``count(v)``."""
    node_vars, edge_vars = pattern_variables(query)
    for name in sorted(node_vars | edge_vars):
        yield name, query._replace(items=(ReturnItem(FunctionCall("count", (Variable(name),)), None, f"count({name})"),))


# The key that only the nodes of each label have, as a test below checks.
LABEL_KEYS = {"Tower": "Tower", "Sensor": "SensorId"}


def _partition_twins(query: Query):
    """Per predicate ``p``: the query with ``p`` added to its WHERE, with
    ``NOT (p)`` added, and the query whose rows the two make. ``p`` is the
    query's own WHERE, then, per node ``x`` and label, that ``x``'s key of
    the label is even: null exactly where ``x`` lacks the label."""
    if query.where is not None:
        yield query, query._replace(where=Unary("NOT", query.where)), query._replace(where=None)
    for where, node in _node_patterns(query):
        name = node.variable or f"m{where[0]}_{where[1]}_{where[2]}"
        named = _with_node(query, where, node._replace(variable=name))
        for label, key in LABEL_KEYS.items():
            value = PropertyAccess(name, key)
            even = Binary("=", Binary("*", Binary("/", value, Literal(2)), Literal(2)), value)
            labelled = node._replace(variable=name, labels=tuple(dict.fromkeys((*node.labels, label))))
            yield _and(named, even), _and(named, Unary("NOT", even)), _with_node(named, where, labelled)


def _is_plain(query: Query) -> bool:
    return not query.distinct and not any(contains_aggregate(item.expr) for item in query.items)


# Per relation, on each graph, how many twins it checks: none is vacuous.
TWIN_COUNTS = {
    "inline map": {"shipped": 30, "100 towers": 30, "400 towers": 30},
    "label": {"shipped": 5, "100 towers": 3, "400 towers": 3},
    "direction": {"shipped": 18, "100 towers": 18, "400 towers": 18},
    "count": {"shipped": 26, "100 towers": 26, "400 towers": 24},
    # (twins, twins whose p and NOT (p) both keep rows)
    "partition": {"shipped": (53, 9), "100 towers": (48, 10), "400 towers": (48, 10)},
}


def test_only_towers_have_a_tower_key():
    for name in BAG_GRAPHS:
        graph = _graph(name)
        keyed = [node for node in graph.nodes() if "Tower" in node.properties]
        assert keyed == [node for node in graph.nodes() if "Tower" in node.labels]
        assert all(type(node.properties["Tower"]) is int and node.properties["Tower"] >= 0 for node in keyed)


def test_only_sensors_have_a_sensor_id():
    for name in BAG_GRAPHS:
        graph = _graph(name)
        keyed = [node for node in graph.nodes() if "SensorId" in node.properties]
        assert keyed == [node for node in graph.nodes() if "Sensor" in node.labels]
        assert all(type(node.properties["SensorId"]) is int for node in keyed)


@pytest.mark.parametrize("graph_name", BAG_GRAPHS)
def test_an_inline_map_is_a_where_equality(graph_name):
    graph, checked = _graph(graph_name), 0
    for query, text in _parsed(graph_name).items():
        whole = _bag(graph, query)
        for twin in _inline_map_twins(query):
            assert _bag(graph, twin) == whole, text
            checked += 1
    assert checked == TWIN_COUNTS["inline map"][graph_name]


@pytest.mark.parametrize("graph_name", BAG_GRAPHS)
def test_a_label_is_a_filter_on_the_key_only_its_nodes_have(graph_name):
    graph, checked = _graph(graph_name), 0
    # Unlabelled, one side of a closest pair meets every node: on 100 towers,
    # 2,100 nodes times 100 towers, where the shipped graph has 135 times 13.
    for query, text in _parsed(graph_name, pairs_up_to="shipped").items():
        whole = _bag(graph, query)
        for twin in _unlabelled_twins(query):
            assert _bag(graph, twin) == whole, text
            checked += 1
    assert checked == TWIN_COUNTS["label"][graph_name]


@pytest.mark.parametrize("graph_name", BAG_GRAPHS)
def test_a_step_read_either_way_finds_the_same_relationships(graph_name):
    graph, checked = _graph(graph_name), 0
    for query, text in _parsed(graph_name).items():
        if not _is_plain(query):
            continue
        whole = _bag(graph, query)
        for kind, twin, flipped in _direction_twins(query):
            if kind == "backwards":
                assert _bag(graph, twin) == whole, text
            else:
                columns, both = _bag(graph, twin)
                assert (columns, both) == (whole[0], whole[1] + _bag(graph, flipped)[1]), text
            checked += 1
    assert checked == TWIN_COUNTS["direction"][graph_name]


@pytest.mark.parametrize("graph_name", BAG_GRAPHS)
def test_count_of_a_pattern_variable_gives_the_row_count(graph_name):
    graph, checked = _graph(graph_name), 0
    for query, text in _parsed(graph_name).items():
        if not _is_plain(query):
            continue
        result = _outcome(graph, query._replace(order_by=()))
        if not isinstance(result, ResultSet):
            continue
        for name, twin in _count_twins(query._replace(order_by=())):
            assert list(execute(graph, twin).rows) == [(len(result.rows),)], (text, name)
            checked += 1
    assert checked == TWIN_COUNTS["count"][graph_name]


@pytest.mark.parametrize("graph_name", BAG_GRAPHS)
def test_where_p_and_where_not_p_partition_the_rows(graph_name):
    graph, checked, split = _graph(graph_name), 0, 0
    for query, text in _parsed(graph_name, pairs_up_to="shipped").items():
        if not _is_plain(query):
            continue
        for kept, dropped, whole in _partition_twins(query._replace(order_by=())):
            (columns, yes), (_, no) = _bag(graph, kept), _bag(graph, dropped)
            assert (columns, yes + no) == _bag(graph, whole), text
            checked += 1
            split += bool(yes) and bool(no)
    assert (checked, split) == TWIN_COUNTS["partition"][graph_name]
