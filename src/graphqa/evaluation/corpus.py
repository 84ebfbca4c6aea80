"""Benchmark corpus: questions with ground-truth queries and expected values.

A corpus file is JSON with a version marker:

    {"schema_version": "1", "questions": [{"id": ..., "question": ...,
     "ground_truth_query": ..., "expected_values": [...], "is_trick": false,
     "rephrasings": [...]}, ...]}

Expected values are canonical renderings (the record serializer's formats),
so content checks are stable against the serialized database output. Trick
questions (asking about entities that do not exist) carry an empty expected
list; their correct database outcome is the empty list.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

from ..cypher import parse_query, execute, serialize_records
from ..cypher.ast import value_type
from ..datafiles import atomic_write
from ..errors import CorpusError, EngineError
from ..graph.store import PropertyGraph
from ..pipeline import OutcomeCase, classify_db_outcome

CORPUS_SCHEMA_VERSION = "1"

# The JSON type of each question field; both lists hold strings.
_FIELD_TYPES = {
    **dict.fromkeys(("id", "question", "ground_truth_query"), str),
    **dict.fromkeys(("expected_values", "rephrasings"), list),
    "is_trick": bool,
}


@value_type
class QuestionSpec(NamedTuple):
    id: str
    question: str
    ground_truth_query: str
    expected_values: Sequence[str] = ()
    is_trick: bool = False
    rephrasings: Sequence[str] = ()

    @property
    def wanted_outcome(self) -> OutcomeCase:
        """The database outcome that answers this question."""
        return OutcomeCase.EMPTY_LIST if self.is_trick else OutcomeCase.CONTENT


def _question(raw: object) -> QuestionSpec:
    """One corpus entry; a wrongly typed field it gives raises ``TypeError``."""
    spec = QuestionSpec(**raw)
    for name, value in raw.items():
        kind = _FIELD_TYPES[name]
        if type(value) is not kind or (kind is list and any(type(item) is not str for item in value)):
            raise TypeError(f"field {name!r} must be {'a list of strings' if kind is list else kind.__name__}")
    return spec


def load_corpus(path: str) -> list[QuestionSpec]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError: JSON text is UTF-8
        raise CorpusError(f"corpus {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema_version") != CORPUS_SCHEMA_VERSION:
        raise CorpusError(f"corpus {path}: missing or unsupported schema_version")
    questions = data.get("questions", [])
    if not isinstance(questions, list):
        raise CorpusError(f"corpus {path}: questions must be a list")
    specs, ids = [], set()
    for idx, raw in enumerate(questions):
        try:
            spec = _question(raw)
        except TypeError as exc:
            raise CorpusError(f"corpus {path}: question #{idx} malformed: {exc}") from exc
        # Reports key questions by id, so a repeated id would merge two questions.
        if spec.id in ids:
            raise CorpusError(f"corpus {path}: question #{idx} repeats id {spec.id!r}")
        ids.add(spec.id)
        # Each phrasing is run once per model, so a repeated one would count twice.
        phrasings = [spec.question, *spec.rephrasings]
        for i, text in enumerate(phrasings):
            if text in phrasings[:i]:
                raise CorpusError(f"corpus {path}: question #{idx} ({spec.id!r}) repeats the phrasing {text!r}")
        specs.append(spec)
    if not specs:
        raise CorpusError(f"corpus {path}: no questions")
    return specs


def save_corpus(specs: list[QuestionSpec], path: str) -> None:
    payload = {"schema_version": CORPUS_SCHEMA_VERSION, "questions": [s._asdict() for s in specs]}
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


def validate_corpus(graph: PropertyGraph, specs: list[QuestionSpec]) -> None:
    """Ground-truth gate: every reference query must answer its own question.

    Non-trick questions must have expected values and their ground-truth
    query's output must contain all of them; a trick question's query must
    yield the empty list. Both are read from the pipeline's outcome
    classifier, the same outcome grading reads.
    """
    for spec in specs:
        try:
            output = serialize_records(execute(graph, parse_query(spec.ground_truth_query)))
        except EngineError as exc:
            raise CorpusError(f"{spec.id}: ground-truth query failed: {exc}") from exc
        if spec.is_trick:
            if spec.expected_values:
                raise CorpusError(f"{spec.id}: trick questions must have no expected values")
        elif not spec.expected_values:
            raise CorpusError(f"{spec.id}: non-trick question needs expected values")
        if classify_db_outcome(output, spec.expected_values) is not spec.wanted_outcome:
            if spec.is_trick:
                raise CorpusError(f"{spec.id}: trick ground truth returned {output!r}, expected []")
            raise CorpusError(f"{spec.id}: ground-truth output does not contain all expected values")


def corpus_instances(
    specs: list[QuestionSpec], include_rephrasings: bool = True
) -> list[tuple[QuestionSpec, int, str]]:
    """Flatten to (spec, variant, question) rows; variant 0 is the original."""
    instances = []
    for spec in specs:
        instances.append((spec, 0, spec.question))
        if include_rephrasings:
            for idx, text in enumerate(spec.rephrasings, start=1):
                instances.append((spec, idx, text))
    return instances
