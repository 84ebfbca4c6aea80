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

Three more take each query that runs and has no aggregate and no DISTINCT,
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
"""

from __future__ import annotations

import os
import re
from collections import Counter

import pytest

from graphqa import data_path
from graphqa.cypher import execute, parse_query, serialize_records
from graphqa.cypher.ast import FunctionCall, Literal, OrderItem, Query, ReturnItem, Variable, contains_aggregate
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


@pytest.fixture(scope="module", params=["shipped", "100 towers"])
def graph(request):
    if request.param == "shipped":
        return load_dataset_file(data_path("msa_dataset.jsonl"))
    return generate_msa_fixture(GeneratorConfig(tower_count=100, attached_sensors=2000, seed=0))


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
