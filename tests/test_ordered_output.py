"""Row order of ORDER BY and LIMIT queries, pinned to frozen digests.

The oracle compares row multisets, so it cannot see a change in row order.
``ordered_digests.json`` holds one outcome per case below: ``ok:`` and a
digest of the serialized records, or ``error:`` and the error kind. It was
frozen from the engine that sorted with a pairwise comparator, so it pins
that engine's exact order, including ties broken by row position.

Each seeded graph gets a ``random_query_ast`` with ORDER BY allowed and a
``random_scan_query``. Most random queries match few rows; the scan query
matches many, and sorts aggregated and DISTINCT rows by alias too.

A seeded reference test also sorts each query's unordered rows with that
pairwise comparator: ``sort_key`` entry by entry, the first difference
decides, and ties go by row position.

    PYTHONPATH=src python tests/test_ordered_output.py   # rewrite the digests
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

from generators import PROP_KEYS, random_graph, random_query_ast, random_scan_query
from graphqa.cypher import execute, serialize_records
from graphqa.cypher.ast import (
    FunctionCall,
    MatchClause,
    NodePattern,
    OrderItem,
    PathPattern,
    PropertyAccess,
    Query,
    ReturnItem,
    Variable,
    print_query,
)
from graphqa.cypher.executor import sort_key
from graphqa.errors import EngineError

PAIRS = 300
SEED = 20261017
DIGESTS = Path(__file__).with_name("ordered_digests.json")


def cases():
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        graph = random_graph(rng, max_nodes=16, max_rels=24)
        yield graph, random_query_ast(rng, allow_order=True)
        yield graph, random_scan_query(rng)


def outcome(graph, query) -> str:
    try:
        text = serialize_records(execute(graph, query))
    except EngineError as exc:
        return "error:" + exc.kind
    return "ok:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_ordered_rows_match_frozen_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = [outcome(graph, query) for graph, query in cases()]
    assert len(got) == len(expected) == 2 * PAIRS
    mismatches = [
        f"case {i}: {print_query(query)}"
        for i, ((_, query), a, b) in enumerate(zip(cases(), got, expected))
        if a != b
    ]
    assert not mismatches, "\n".join(mismatches[:10])


def test_limit_is_a_prefix_of_the_unlimited_order():
    checked = 0
    for graph, query in cases():
        if query.limit is None:
            continue
        unlimited = execute(graph, Query(query.matches, query.where, query.distinct, query.items, query.order_by))
        limited = execute(graph, query)
        assert limited.rows == unlimited.rows[: query.limit], print_query(query)
        checked += 1
    assert checked > 100


def reference_query(rng: random.Random) -> Query:
    """Columns of mixed kinds, ordered by two or three of them in random
    directions, sometimes over aggregated or DISTINCT rows, mostly with LIMIT."""
    variables = ["v0", "v1"][: rng.randint(1, 2)]
    paths = tuple(PathPattern((NodePattern(name, ()),), ()) for name in variables)
    exprs = []
    for _ in range(rng.randint(2, 3)):
        variable = rng.choice(variables)
        exprs.append(Variable(variable) if rng.random() < 0.2 else PropertyAccess(variable, rng.choice(PROP_KEYS)))
    aggregated = rng.random() < 0.2
    if aggregated:
        exprs.append(FunctionCall("count", (), star=True))
    items = tuple(ReturnItem(expr=expr, alias=f"col{i}") for i, expr in enumerate(exprs))
    order_by = tuple(
        OrderItem(expr=Variable(f"col{i}"), ascending=rng.random() < 0.5)
        for i in rng.sample(range(len(items)), rng.randint(2, min(3, len(items))))
    )
    limit = rng.randint(0, 6) if rng.random() < 0.8 else None
    distinct = not aggregated and rng.random() < 0.2
    return Query((MatchClause(paths),), None, distinct, items, order_by, limit)


def reference_rows(graph, query: Query) -> list[tuple]:
    """The query's rows without ORDER BY and LIMIT, sorted by the pairwise
    comparator and cut to LIMIT."""
    rows = execute(graph, Query(query.matches, None, query.distinct, query.items)).rows
    position = {item.alias: i for i, item in enumerate(query.items)}
    columns = [position[entry.expr.name] for entry in query.order_by]
    directions = [entry.ascending for entry in query.order_by]
    keyed = [([sort_key(row[i]) for i in columns], n, row) for n, row in enumerate(rows)]

    def compare(a, b) -> int:
        for key_a, key_b, ascending in zip(a[0], b[0], directions):
            if key_a != key_b:
                result = -1 if key_a < key_b else 1
                return result if ascending else -result
        return -1 if a[1] < b[1] else (1 if a[1] > b[1] else 0)

    keyed.sort(key=functools.cmp_to_key(compare))
    return [row for _, _, row in keyed][: query.limit]


def test_order_matches_the_pairwise_comparator():
    rng = random.Random(20261019)
    mixed_and_cut = 0
    for _ in range(300):
        graph, query = random_graph(rng, max_nodes=12, max_rels=0), reference_query(rng)
        expected = reference_rows(graph, query)
        assert execute(graph, query).rows == expected, print_query(query)
        directions = {entry.ascending for entry in query.order_by}
        mixed_and_cut += len(directions) == 2 and query.limit is not None and len(expected) == query.limit > 0
    assert mixed_and_cut > 50


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([outcome(g, q) for g, q in cases()], indent=0) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
