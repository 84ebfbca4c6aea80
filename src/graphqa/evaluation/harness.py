"""Batch evaluation: run a corpus through the pipeline and grade every run.

Run records are JSON lines (one header, then one envelope per run) holding
every stage artifact plus grades, so reports can be rebuilt from disk without
re-running models.
"""

from __future__ import annotations

from typing import NamedTuple

from ..datafiles import RUNS, _checked, atomic_write, file_lines, read_document, value_type, write_document
from ..errors import CorpusError, ValidationError
from ..graph.store import PropertyGraph
from ..llm import Gateway
from ..pipeline import PipelineConfig, PipelineRun, answer_question
from .corpus import QuestionSpec, corpus_instances
from .scoring import RunGrades, grade_run

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


def metric_rows(records: list[RunRecord], specs_by_id: dict[str, QuestionSpec] | None = None) -> list[RunRecord]:
    """The records as they are, since ``compute_metrics`` reads them directly;
    kept, with its unused ``specs_by_id``, only for ``perfbench/workloads.py``."""
    return list(records)


def save_run_records(path: str, model: str, records: list[RunRecord]) -> None:
    atomic_write(path, write_document(RUNS, (record.to_dict() for record in records), model=model))


def load_run_records(path: str) -> tuple[str, list[RunRecord]]:
    """The model a run record file's header names, and its records; any
    fault in the file, such as a record of another model, raises
    ``CorpusError`` naming the file and line."""

    def fault(message: str, lineno: int) -> CorpusError:
        return CorpusError(f"run record file {path} line {lineno}: {message}")

    header, values = read_document(file_lines(path), RUNS, fault)
    model = header.get("model", "")
    records = []
    for lineno, data in values:
        try:
            record = RunRecord.from_dict(data)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise fault(f"{type(exc).__name__}: {exc}", lineno) from exc
        if record.run.model_task1 != model:
            raise fault(f"a run of model {record.run.model_task1!r}, but the header names {model!r}", lineno)
        records.append(record)
    return model, records
