"""Run grading and score aggregation.

Metrics per run:

- em: the predicted query equals the ground truth after canonicalization.
- content: the database output contains every expected value (trick
  questions: the output is exactly the empty list). This and misinformation
  read the outcome the pipeline recorded on the run
  (``pipeline.classify_db_outcome`` against the question's expected values);
  grading does not classify the output again.
- content_length: character count of the serialized output, recorded only
  for content-correct runs.
- misinformation: the query executed but retrieved semantically wrong data
  (the WRONG_CONTENT outcome) - the dangerous failure mode, since a fluent
  summary of wrong rows reads like a real answer.
- output_correct: stage-2 answer quality *given its input*: with correct
  content the answer must contain every expected value (numbers compared
  within 1e-9 relative tolerance, units/degree marks tolerated, names
  case-insensitive); a trick question answered from an empty list must state
  nonexistence; with failed/empty/wrong input the answer must not assert
  wrong values as fact. The phrase lexicons and the tolerance are module
  constants, and every decision carries a logged reason. The answer is
  lowercased, and scanned for numbers, at most once for all of these checks.
- absolute_correct: the user actually got the right answer end to end.

Aggregation reports percentages over all runs of a model, plus the stricter
"EM only" absolute score where only exact-match queries count as having
provided content.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..cypher import canonicalize_query
from ..cypher.ast import value_type
from ..datafiles import _checked
from ..matching import _value_occurs, find_numbers, find_output_text_values, is_numeric_text, numbers_match
from ..errors import ValidationError
from ..pipeline import OutcomeCase, PipelineRun
from .corpus import QuestionSpec

if TYPE_CHECKING:
    from .harness import RunRecord

NONEXISTENCE_LEXICON = (
    "does not exist",
    "doesn't exist",
    "do not exist",
    "no such",
    "not found",
    "could not be found",
    "no tower",
    "no sensor",
    "is not present",
    "there is no",
    "there are no",
)

NO_ASSERTION_LEXICON = (
    "could not",
    "couldn't",
    "cannot",
    "can't",
    "unable to",
    "no data",
    "not found",
    "no results",
    "no matching",
    "no records",
    "nothing was returned",
    "does not exist",
    "doesn't exist",
    "no such",
    "error",
    "failed",
    "empty",
    "not available",
    "unavailable",
    "rather than",
    "instead of",
    "not reliable",
    "not answer",
)

NUMERIC_REL_TOL = 1e-9


def score_em(predicted: str | None, ground_truth: str) -> int:
    """1 iff the canonicalized query texts are equal."""
    if predicted is None:
        return 0
    return 1 if canonicalize_query(predicted) == canonicalize_query(ground_truth) else 0


def _lexicon_hit(folded: str, lexicon: tuple[str, ...]) -> str | None:
    for phrase in lexicon:
        if phrase in folded:
            return phrase
    return None


def grade_answer(
    answer: str | None,
    spec: QuestionSpec,
    outcome: OutcomeCase,
    db_output: str,
) -> tuple[int, str]:
    """Grade the stage-2 answer against the outcome it was given.

    Returns (0/1, reason); the reason string is logged with each run so the
    automatic decision can be audited.
    """
    if answer is None:
        return 0, "no answer produced"
    folded = answer.lower()

    if outcome is OutcomeCase.CONTENT:
        numbers = None  # find_numbers(answer), scanned at the first numeric value
        missing = []
        for value in spec.expected_values:
            if is_numeric_text(value):
                numbers = find_numbers(answer) if numbers is None else numbers
                found = any(numbers_match(number, float(value), NUMERIC_REL_TOL) for number in numbers)
            else:
                found = _value_occurs(value, answer, folded)
            if not found:
                missing.append(value)
        if missing:
            return 0, f"answer missing expected value(s): {missing}"
        return 1, "all expected values present in answer"

    if outcome is OutcomeCase.EMPTY_LIST and spec.is_trick:
        phrase = _lexicon_hit(folded, NONEXISTENCE_LEXICON)
        if phrase:
            return 1, f"nonexistence stated ({phrase!r})"
        return 0, "trick question: answer does not state nonexistence"

    # Failure outcomes: NAN, non-trick EMPTY_LIST, WRONG_CONTENT. Correct
    # behavior is not to assert wrong values as fact.
    phrase = _lexicon_hit(folded, NO_ASSERTION_LEXICON)
    if phrase:
        return 1, f"failure acknowledged ({phrase!r})"
    expected_numbers = [float(v) for v in spec.expected_values if is_numeric_text(v)]
    for number in find_numbers(answer):
        if not any(numbers_match(number, e, NUMERIC_REL_TOL) for e in expected_numbers):
            return 0, f"asserts unexpected number {number:g} as fact"
    expected_texts = {v.lower() for v in spec.expected_values if not is_numeric_text(v)}
    for quoted in find_output_text_values(db_output):
        if quoted.lower() not in expected_texts and _value_occurs(quoted, answer, folded):
            return 0, f"asserts unexpected value {quoted!r} from the database output"
    return 1, "no wrong values asserted"


@value_type
class RunGrades(NamedTuple):
    em: int
    content: int
    content_length: int | None
    misinformation: int
    output_correct: int
    absolute_correct: int

    def validate(self) -> None:
        for name in ("em", "content", "misinformation", "output_correct", "absolute_correct"):
            value = getattr(self, name)
            if value != 0 and value != 1:
                raise ValidationError(f"grade {name} must be 0 or 1, got {value!r}")
        if self.content_length is not None and self.content_length < 0:
            raise ValidationError(f"grade content_length must be None or >= 0, got {self.content_length!r}")
        if self.em == 1 and self.content != 1:
            raise ValidationError("grade invariant violated: em=1 requires content=1")
        if self.content == 1 and self.misinformation != 0:
            raise ValidationError("grade invariant violated: content=1 requires misinformation=0")
        if self.absolute_correct == 1 and not (self.output_correct == 1 and self.content == 1):
            raise ValidationError("grade invariant violated: absolute requires output and content")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: object) -> RunGrades:
        """Valid grades from their ``to_dict`` form; a wrongly typed field raises ``TypeError``."""
        grades = cls(**_checked(data, _GRADE_TYPES, "grades"))
        grades.validate()
        return grades


# The JSON types a saved grade may hold; a boolean is not an integer here.
_GRADE_TYPES = {**dict.fromkeys(RunGrades._fields, (int,)), "content_length": (int, type(None))}


def grade_run(run: PipelineRun, spec: QuestionSpec) -> tuple[RunGrades, str]:
    """Compute all per-run grades; returns (grades, output-grade reason).

    Content, misinformation and the answer's grade read ``run.outcome``, the
    outcome the pipeline recorded; the output is not classified again. So the
    run must have been answered with ``spec.expected_values``, as
    ``evaluate_model`` does: its outcome must be
    ``classify_db_outcome(run.db_output, spec.expected_values)``.
    """
    outcome = run.outcome
    content = 1 if outcome is spec.wanted_outcome else 0
    output_correct, reason = grade_answer(run.answer, spec, outcome, run.db_output)
    absolute = 1 if (output_correct == 1 and content == 1) else 0
    grades = RunGrades(
        em=score_em(run.extracted_query, spec.ground_truth_query),
        content=content,
        content_length=len(run.db_output) if content == 1 else None,
        misinformation=1 if outcome is OutcomeCase.WRONG_CONTENT else 0,
        output_correct=output_correct,
        absolute_correct=absolute,
    )
    grades.validate()
    return grades, reason


@value_type
class ModelScores(NamedTuple):
    n: int
    em_score: float
    content_score: float
    output_score: float
    misinformation_score: float
    absolute_score: float
    absolute_em_only: float


@value_type
class MetricsReport(NamedTuple):
    """Scores per model, and one ``(model, original question, content length)``
    row per run of an original (not rephrased) question, in run order."""

    scores: dict[str, ModelScores]
    lengths: tuple[tuple[str, str, int | None], ...] = ()


def compute_metrics(records: list[RunRecord]) -> MetricsReport:
    """Aggregate per-model percentage scores over a run set."""
    if not records:
        raise ValidationError("cannot compute metrics over zero runs")
    by_model: dict[str, list[RunGrades]] = {}
    lengths = []
    for record in records:
        grades, model = record.grades, record.run.model_task1
        grades.validate()
        by_model.setdefault(model, []).append(grades)
        if record.variant == 0:
            lengths.append((model, record.original_question, grades.content_length))

    scores: dict[str, ModelScores] = {}
    for model, grade_list in by_model.items():
        n = len(grade_list)
        scores[model] = ModelScores(
            n=n,
            em_score=100.0 * sum(g.em for g in grade_list) / n,
            content_score=100.0 * sum(g.content for g in grade_list) / n,
            output_score=100.0 * sum(g.output_correct for g in grade_list) / n,
            misinformation_score=100.0 * sum(g.misinformation for g in grade_list) / n,
            absolute_score=100.0 * sum(g.absolute_correct for g in grade_list) / n,
            absolute_em_only=100.0 * sum(1 for g in grade_list if g.em == 1 and g.output_correct == 1) / n,
        )
    return MetricsReport(scores, tuple(lengths))
