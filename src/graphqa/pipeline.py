"""Two-stage question answering over the graph.

Stage 1 prompts a model to translate the user's question into a Cypher query
(the prompt carries the schema description and one example relationship);
the query is executed locally and its serialized output is classified into
one of four outcome cases. Stage 2 prompts a model to summarize the database
output (or the literal failure sentinel ``nan``) back into natural language.
Stage 2 always runs, even after a failed query, so the summarizer's handling
of empty and failed outputs can be graded. A run never raises for gateway or
query failures; every stage artifact is recorded on the run object.
"""

from __future__ import annotations

import enum
import re
import time
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .cypher import execute, parse_query, serialize_records
from .cypher.ast import value_type
from .datafiles import _checked, data_path
from .errors import EngineError, GatewayError, TemplateError
from .graph.store import PropertyGraph, schema_description
from .llm import CompletionRequest, CypherCandidate, Gateway, extract_cypher
from .matching import _value_occurs

NAN_SENTINEL = "nan"
EMPTY_OUTPUT = "[]"

# The worked example shown in every stage-1 prompt (a sensor and the tower it
# is mounted on). Referencing a concrete tower number is a known source of
# model confusion and is part of what the evaluation measures.
DEFAULT_EXAMPLE_RELATIONSHIP = "(t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor)"

_REQUIRED_PLACEHOLDERS = {
    "task1": ("question", "schema", "example"),
    "task2": ("question", "db_output"),
}


class OutcomeCase(enum.Enum):
    """Four-way classification of what the database returned."""

    CONTENT = "content"
    EMPTY_LIST = "empty-list"
    NAN = "nan"
    WRONG_CONTENT = "wrong-content"


class PromptTemplate:
    """A prompt body with named ``{placeholder}`` markers, split once.

    Only the template's required names are markers; any other brace text,
    e.g. a Cypher property map, is literal. Values are joined between the
    literal pieces in one pass, so text inside a value is never substituted.
    """

    __slots__ = ("template_id", "body", "_pieces")

    def __init__(self, template_id: str, body: str):
        required = _REQUIRED_PLACEHOLDERS.get(template_id)
        if required is None:
            raise TemplateError(f"unknown template id {template_id!r}")
        self.template_id = template_id  # 'task1' | 'task2'
        self.body = body
        # With a capturing group, re.split puts each marker's name at the odd
        # indexes, between the literal pieces.
        self._pieces = re.split("\\{(" + "|".join(required) + ")\\}", body)
        for name in required:
            if name not in self._pieces[1::2]:
                raise TemplateError(f"template {template_id!r} missing placeholder {{{name}}}")

    def render(self, **values: str) -> str:
        """Join the literal pieces with the values; exactly the required names."""
        required = _REQUIRED_PLACEHOLDERS[self.template_id]
        if values.keys() != set(required):
            raise TemplateError(f"placeholder values {sorted(values)} do not match {sorted(required)}")
        parts = self._pieces.copy()
        parts[1::2] = [values[name] for name in parts[1::2]]
        return "".join(parts)


def load_template_file(path: str, template_id: str) -> PromptTemplate:
    """Read a template; leading ``#`` header lines are not part of the prompt."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise TemplateError(f"{path}: {exc}") from exc
    body_start = 0
    while body_start < len(lines) and lines[body_start].startswith("#"):
        body_start += 1
    return PromptTemplate(template_id, "\n".join(lines[body_start:]).strip("\n"))


def load_templates(directory: str | None = None) -> dict[str, PromptTemplate]:
    base = directory or data_path("templates")
    return {
        "task1": load_template_file(f"{base}/task1.txt", "task1"),
        "task2": load_template_file(f"{base}/task2.txt", "task2"),
    }


@value_type
class PipelineConfig(NamedTuple):
    model_task1: str
    templates: dict[str, PromptTemplate]
    model_task2: str | None = None  # defaults to the stage-1 model

    @property
    def task2_model(self) -> str:
        return self.model_task2 or self.model_task1


def build_task1_prompt(question: str, graph: PropertyGraph, template: PromptTemplate) -> str:
    """Deterministic stage-1 prompt: question + schema + one example."""
    return template.render(
        question=question, schema=schema_description(graph), example=DEFAULT_EXAMPLE_RELATIONSHIP
    )


def build_task2_prompt(question: str, db_output: str, template: PromptTemplate) -> str:
    """Deterministic stage-2 prompt embedding the database output verbatim."""
    return template.render(question=question, db_output=db_output)


def classify_db_outcome(db_output: str, expected_values: Sequence[str] | None) -> OutcomeCase:
    """Classify a stage-1 result; total over all inputs.

    This is the only place a database output is compared with expected
    values: grading reads the outcome ``answer_question`` records on the
    run, and the corpus self-check calls it per reference query. The literal
    sentinel marks a failed query: a lex, parse, semantic or runtime error,
    or a failed extraction. An empty expected-value list (trick questions,
    or ad-hoc questions with no ground truth) makes any successful non-empty
    output count as CONTENT vacuously; for trick questions EMPTY_LIST is the
    desired outcome and is checked first. The output is lowercased once for
    all expected values.
    """
    if db_output == NAN_SENTINEL:
        return OutcomeCase.NAN
    if db_output == EMPTY_OUTPUT:
        return OutcomeCase.EMPTY_LIST
    folded = db_output.lower()
    if all(_value_occurs(value, db_output, folded) for value in expected_values or ()):
        return OutcomeCase.CONTENT
    return OutcomeCase.WRONG_CONTENT


@value_type
class PipelineRun(NamedTuple):
    """Every artifact produced while answering one question."""

    question: str
    model_task1: str
    model_task2: str
    task1_prompt: str
    task1_response: str | None
    extracted_query: str | None
    extraction_method: str | None
    engine_error: str | None
    db_output: str  # serialized records, "[]", or the "nan" sentinel
    outcome: OutcomeCase
    task2_prompt: str
    answer: str | None
    failure: str | None = None  # "task1: ..." / "task2: ..." gateway marker
    durations: Mapping[str, float] = MappingProxyType({})

    def to_dict(self) -> dict:
        data = self._asdict()
        data["outcome"] = self.outcome.value
        data["durations"] = dict(self.durations)
        return data

    @classmethod
    def from_dict(cls, data: object) -> PipelineRun:
        """A run from its ``to_dict`` form; a wrongly typed field raises ``TypeError``."""
        payload = dict(_checked(data, _RUN_TYPES, "run"))
        payload["outcome"] = OutcomeCase(payload["outcome"])
        return cls(**payload)


# The JSON types a saved run may hold in each field: text, unless listed here.
_RUN_TYPES = {
    **dict.fromkeys(PipelineRun._fields, (str,)),
    **dict.fromkeys(
        ("task1_response", "extracted_query", "extraction_method", "engine_error", "answer", "failure"),
        (str, type(None)),
    ),
    "durations": (dict,),
}


def run_stage1(graph: PropertyGraph, llm_text: str | None) -> tuple[CypherCandidate, str, str | None]:
    """Extract, parse, execute and serialize the query in a stage-1 response.

    Returns the candidate, the serialized records (or the ``nan`` sentinel),
    and for a failed query its ``"kind: message"`` reason. No response at all
    (the stage-1 call failed) also gives ``nan``, with no reason: the gateway
    failure is recorded elsewhere.
    """
    if llm_text is None:
        return CypherCandidate(None), NAN_SENTINEL, None
    candidate = extract_cypher(llm_text)
    if candidate.extracted_query is None:
        return candidate, NAN_SENTINEL, "extraction: no Cypher query found in model output"
    try:
        return candidate, serialize_records(execute(graph, parse_query(candidate.extracted_query))), None
    except EngineError as exc:
        return candidate, NAN_SENTINEL, f"{exc.kind}: {exc}"


def answer_question(
    question: str,
    graph: PropertyGraph,
    gateway: Gateway,
    config: PipelineConfig,
    expected_values: Sequence[str] | None = None,
) -> PipelineRun:
    """Run the full two-stage workflow for one question.

    Exactly two completion calls are attempted per question and the graph is
    never written to. Gateway failures are recorded as stage failure markers,
    never raised. The run's ``outcome`` classifies its output against
    ``expected_values``; it is the outcome grading reads.
    """
    task1_template = config.templates["task1"]
    task2_template = config.templates["task2"]
    durations: dict[str, float] = {}
    failure: str | None = None

    prompt1 = build_task1_prompt(question, graph, task1_template)
    started = time.perf_counter()
    response1: str | None
    try:
        response1 = gateway.complete(CompletionRequest(model_name=config.model_task1, prompt=prompt1))
    except GatewayError as exc:
        response1 = None
        failure = f"task1: {exc}"
    durations["task1_s"] = time.perf_counter() - started

    started = time.perf_counter()
    candidate, db_output, engine_error = run_stage1(graph, response1)
    durations["execute_s"] = time.perf_counter() - started

    outcome = classify_db_outcome(db_output, expected_values)

    prompt2 = build_task2_prompt(question, db_output, task2_template)
    started = time.perf_counter()
    answer: str | None
    try:
        answer = gateway.complete(CompletionRequest(model_name=config.task2_model, prompt=prompt2))
    except GatewayError as exc:
        answer = None
        failure = failure or f"task2: {exc}"
    durations["task2_s"] = time.perf_counter() - started

    return PipelineRun(
        question=question,
        model_task1=config.model_task1,
        model_task2=config.task2_model,
        task1_prompt=prompt1,
        task1_response=response1,
        extracted_query=candidate.extracted_query,
        extraction_method=candidate.extraction_method,
        engine_error=engine_error,
        db_output=db_output,
        outcome=outcome,
        task2_prompt=prompt2,
        answer=answer,
        failure=failure,
        durations=durations,
    )
