"""Batch evaluation: run a corpus through the pipeline and grade every run.

Run records are JSON lines (one header, then one envelope per run) holding
every stage artifact plus grades, so reports can be rebuilt from disk without
re-running models.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from ..cypher.ast import value_type
from ..datafiles import _checked, atomic_write, json_lines, sorted_json
from ..errors import CorpusError, ValidationError
from ..graph.store import PropertyGraph
from ..llm import Gateway
from ..pipeline import PipelineConfig, PipelineRun, answer_question
from .corpus import QuestionSpec, corpus_instances
from .scoring import MetricRow, RunGrades, grade_run

RUNS_SCHEMA_VERSION = "1"

# The JSON types a run record line may hold in each of its own fields; a
# boolean is not an integer here. The run and its grades check their own.
_RECORD_TYPES = {
    "question_id": (str,),
    "variant": (int,),
    "is_trick": (bool,),
    "original_question": (str,),
    "reason": (str,),
}


@value_type
class RunRecord(NamedTuple):
    question_id: str
    variant: int  # 0 = original question, 1..n = rephrasings
    is_trick: bool
    original_question: str
    run: PipelineRun
    grades: RunGrades
    reason: str = ""

    def to_dict(self) -> dict:
        data = self._asdict()
        data["run"] = self.run.to_dict()
        data["grades"] = self.grades.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: object) -> RunRecord:
        payload = dict(_checked(data, _RECORD_TYPES, "record"))
        payload["grades"] = RunGrades.from_dict(payload["grades"])
        payload["run"] = PipelineRun.from_dict(payload["run"])
        return cls(**payload)

    def spec_stub(self) -> QuestionSpec:
        """Enough of a QuestionSpec to aggregate and report from disk."""
        return QuestionSpec(
            id=self.question_id, question=self.original_question, ground_truth_query="", is_trick=self.is_trick
        )


def evaluate_model(
    graph: PropertyGraph,
    specs: list[QuestionSpec],
    gateway: Gateway,
    config: PipelineConfig,
    include_rephrasings: bool = True,
) -> list[RunRecord]:
    """Answer and grade every corpus instance with one model configuration."""
    records: list[RunRecord] = []
    for spec, variant, question in corpus_instances(specs, include_rephrasings):
        run = answer_question(question, graph, gateway, config, expected_values=spec.expected_values)
        records.append(RunRecord(spec.id, variant, spec.is_trick, spec.question, run, *grade_run(run, spec)))
    return records


def metric_rows(
    records: list[RunRecord], specs_by_id: dict[str, QuestionSpec] | None = None
) -> list[MetricRow]:
    """Shape run records for ``compute_metrics``."""
    rows = []
    for record in records:
        spec = (specs_by_id or {}).get(record.question_id) or record.spec_stub()
        rows.append((record.run, spec, record.grades))
    return rows


def save_run_records(path: str, model: str, records: list[RunRecord]) -> None:
    lines = [json.dumps({"kind": "runs", "schema_version": RUNS_SCHEMA_VERSION, "model": model})]
    for record in records:
        lines.append(sorted_json(record.to_dict()))
    atomic_write(path, "\n".join(lines) + "\n")


def load_run_records(path: str) -> tuple[str, list[RunRecord]]:
    """Read a run record file; any malformed line raises ``CorpusError``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise CorpusError(f"run record file {path} is empty")

    def line_error(lineno: int, exc: Exception) -> CorpusError:
        return CorpusError(f"run record file {path} line {lineno}: {type(exc).__name__}: {exc}")

    lines = json_lines(text.splitlines(), line_error)
    try:
        lineno, header = next(lines)
    except (StopIteration, CorpusError):  # only blank lines, or the first other line is not JSON
        lineno, header = 0, None
    if lineno != 1 or type(header) is not dict or (header.get("kind"), header.get("schema_version")) != ("runs", RUNS_SCHEMA_VERSION):
        raise CorpusError(f"run record file {path} has no valid header")
    records = []
    for lineno, data in lines:
        try:
            records.append(RunRecord.from_dict(data))
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise line_error(lineno, exc) from exc
    return header.get("model", ""), records
