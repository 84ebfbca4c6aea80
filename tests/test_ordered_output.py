"""Row order of ORDER BY and LIMIT queries, pinned to frozen digests.

The oracle compares row multisets, so it cannot see a change in row order.
``ordered_digests.json`` holds one outcome per case below: ``ok:`` and a
digest of the serialized records, or ``error:`` and the error kind. It was
frozen from the engine that sorted with a pairwise comparator, so it pins
that engine's exact order, including ties broken by row position.

Each seeded graph gets a ``random_query_ast`` with ORDER BY allowed and a
``random_scan_query``. Most random queries match few rows; the scan query
matches many, and sorts aggregated and DISTINCT rows by alias too.

    PYTHONPATH=src python tests/test_ordered_output.py   # rewrite the digests
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from generators import random_graph, random_query_ast, random_scan_query
from graphqa.cypher import execute, serialize_records
from graphqa.cypher.ast import Query, print_query
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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([outcome(g, q) for g, q in cases()], indent=0) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
