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
"""

from __future__ import annotations

import os
import re
from collections import Counter

import pytest

from graphqa import data_path
from graphqa.cypher import execute, parse_query, serialize_records
from graphqa.cypher.records import ResultSet, render_value
from graphqa.errors import EngineError
from graphqa.evaluation import load_corpus
from graphqa.graph import GeneratorConfig, generate_msa_fixture, load_dataset_file
from graphqa.llm import Transcript, extract_cypher
from graphqa.pipeline import load_templates

LIMITS = (0, 1, 3)
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


def _outcome(graph, text: str):
    """The result set of ``text``, or the kind and message of the error it raises."""
    try:
        return execute(graph, parse_query(text))
    except EngineError as exc:
        return (exc.kind, str(exc))


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
