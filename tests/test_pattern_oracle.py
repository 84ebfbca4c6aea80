"""The executor against the brute-force oracle on patterns that test inline.

``random_query_ast`` gives each node at most one label and each edge a
one-entry map at most. These cases add what an expansion tests inline: node
patterns with two labels, relationship types and inline maps on edges in
each of the three directions, and maps that hold a value of the wrong kind.
They also run LIMIT with no ORDER BY, which keeps the first rows of the
executor's documented order (a scan of nodes and relationships by ascending
id), so the oracle's bindings are put in that order to compare with.
"""

from __future__ import annotations

import random
from collections import Counter

import oracle
from generators import LABELS, PROP_KEYS, REL_TYPES, _random_predicate, _random_value_expr, build_graph
from oracle import cell_key, oracle_bindings, oracle_eval, oracle_rows
from graphqa.cypher import execute
from graphqa.cypher.ast import (
    EdgePattern,
    FunctionCall,
    Literal,
    MatchClause,
    NodePattern,
    PathPattern,
    Query,
    ReturnItem,
    print_query,
)

SEED = 20261019
CASES = 1000
# Property values of the graphs and of the inline maps alike, so a map
# often admits some candidates: 1.0 equals 1, and true equals no number.
VALUES = [0, 1, 2, 0, 1, 2, 1.0, 2.5, "x", True]


def dense_graph(rng: random.Random):
    """A small graph where a label pair, a relationship type or a map entry
    often holds, so patterns that test all three still match."""
    nodes = []
    for _ in range(rng.randint(3, 9)):
        labels = rng.sample(LABELS, rng.choices([1, 2], [3, 2])[0])
        nodes.append((labels, {key: rng.choice(VALUES) for key in PROP_KEYS if rng.random() < 0.7}))
    rels = []
    for _ in range(rng.randint(2, 20)):
        props = {"p": rng.choice(VALUES)} if rng.random() < 0.8 else {}
        rels.append((rng.randrange(len(nodes)), rng.choice(REL_TYPES), rng.randrange(len(nodes)), props))
    return build_graph(nodes, rels)


def _map(rng: random.Random, keys: list[str]) -> tuple:
    size = rng.choices([0, 1, 2], [16, 3, 1])[0] if len(keys) > 1 else int(rng.random() < 0.6)
    return tuple((key, Literal(rng.choice(VALUES))) for key in rng.sample(keys, size))


def rich_query(rng: random.Random) -> tuple[Query, list]:
    """A random query, and what each of its node and edge patterns tests."""
    variables: list[str] = []
    shapes: list = []

    def node(first: bool = False) -> NodePattern:
        nodes_named = [name for name in variables if name[0] == "v"]
        roll = rng.random()
        if first or roll < 0.5:
            name = f"v{len(nodes_named)}"
            variables.append(name)
        else:  # a join on a name bound before, or an anonymous node
            name = rng.choice(nodes_named) if roll < 0.65 else None
        labels = tuple(rng.sample(LABELS, rng.choices([0, 1, 2], [5, 3, 2])[0]))
        pattern = NodePattern(name, labels, _map(rng, PROP_KEYS))
        shapes.append(("node", len(labels), pattern.properties))
        return pattern

    def edge(index: int) -> EdgePattern:
        name = f"e{index}" if rng.random() < 0.4 else None
        if name:
            variables.append(name)
        rel_type = rng.choice(REL_TYPES) if rng.random() < 0.7 else None
        pattern = EdgePattern(name, rel_type, rng.choice(["right", "left", "any"]), _map(rng, ["p"]))
        shapes.append(("edge", pattern.direction, rel_type, pattern.properties))
        return pattern

    clauses, edges = [], 0
    for _ in range(rng.choices([1, 2], [4, 1])[0]):
        paths = []
        for _ in range(rng.choices([1, 2], [3, 1])[0]):
            nodes = [node(first=not clauses and not paths)]
            pattern_edges = []
            for _ in range(rng.randint(0 if edges else 1, min(2 if edges else 1, 3 - edges))):
                pattern_edges.append(edge(edges))
                nodes.append(node())
                edges += 1
            paths.append(PathPattern(tuple(nodes), tuple(pattern_edges)))
        clauses.append(MatchClause(tuple(paths)))
    where = _random_predicate(rng, variables) if rng.random() < 0.3 else None
    items = [ReturnItem(_random_value_expr(rng, variables), f"c{i}") for i in range(rng.randint(1, 3))]
    roll = rng.random()
    if roll < 0.15:
        items.append(ReturnItem(FunctionCall("count", (), star=True), "n"))
        limit = None
    else:
        limit = rng.randint(0, 6) if roll < 0.6 else None
    return Query(tuple(clauses), where, False, tuple(items), (), limit), shapes


def ordered_oracle_rows(graph, query: Query) -> list[tuple]:
    """The oracle's rows of a query with no aggregate or LIMIT, in the executor's order.

    Each path's assignments are sorted by start node id, then by the id of
    each relationship along it; the oracle takes products in list order, so
    its bindings come out in the order of an ascending-id scan.
    """
    unsorted = oracle._path_assignments

    def by_id(graph, path):
        return sorted(unsorted(graph, path), key=lambda found: (found[0][0], [rel.id for rel in found[1]]))

    oracle._path_assignments = by_id
    try:
        bindings = oracle_bindings(graph, query)
    finally:
        oracle._path_assignments = unsorted
    return [tuple(cell_key(oracle_eval(item.expr, b)) for item in query.items) for b in bindings]


def test_inline_tests_match_the_oracle_in_row_order():
    rng = random.Random(SEED)
    seen: Counter = Counter()
    for _ in range(CASES):
        graph = dense_graph(rng)
        query, shapes = rich_query(rng)
        got = [tuple(cell_key(cell) for cell in row) for row in execute(graph, query).rows]
        if query.items[-1].alias == "n":
            assert Counter(got) == oracle_rows(graph, query), print_query(query)
            matched = any(row[-1] != cell_key(0) for row in got)
            seen["count"] += matched
        else:
            full = ordered_oracle_rows(graph, Query(query.matches, query.where, False, query.items))
            assert got == full[: query.limit], print_query(query)
            matched = bool(full)
            seen["rows"] += matched
            seen["cut by limit"] += query.limit is not None and query.limit < len(full)
        if not matched:
            continue
        for shape in shapes:  # counted where some binding passed every test
            if shape[0] == "node":
                seen["two labels"] += shape[1] == 2
                seen["node map"] += bool(shape[2])
            else:
                seen[f"{shape[1]} typed with map"] += shape[2] is not None and bool(shape[3])
    for what in ["two labels", "node map", "right typed with map", "left typed with map", "any typed with map"]:
        assert seen[what] >= 10, (what, seen)
    # Enough cases give rows, and LIMIT cuts some of them short.
    assert seen["rows"] >= 120 and seen["cut by limit"] >= 30 and seen["count"] >= 15, seen
