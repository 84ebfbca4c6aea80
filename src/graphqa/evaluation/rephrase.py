"""Model-assisted question rephrasing.

Produces candidate rephrasings one completion call per variant (each prompt
carries the variant number, so recorded transcripts replay deterministically).
Candidates are written to a review file; promoting them into a corpus file is
a deliberate manual step, mirroring a human correctness check.
"""

from __future__ import annotations

import json

from ..datafiles import atomic_write
from ..errors import GatewayError, ValidationError
from ..llm import CompletionRequest, Gateway
from .corpus import QuestionSpec

REPHRASE_PROMPT = (
    "Rephrase the following question in different words while keeping its "
    "exact meaning. Output only the rephrased question, nothing else.\n"
    "Question: {question}\n"
    "Rephrasing {index} of {total}:"
)


def build_rephrase_prompt(question: str, index: int, total: int) -> str:
    return REPHRASE_PROMPT.format(question=question, index=index, total=total)


def _clean(response: str) -> str:
    return response.strip().strip('"').strip()


def rephrase_questions(
    spec: QuestionSpec,
    n: int,
    gateway: Gateway,
    model_name: str,
    review_path: str | None = None,
) -> list[str | None]:
    """Generate ``n`` rephrasing candidates; failures leave ``None`` markers."""
    if n < 1:
        raise ValidationError("rephrasing count must be >= 1")
    candidates: list[str | None] = []
    for index in range(1, n + 1):
        prompt = build_rephrase_prompt(spec.question, index, n)
        try:
            response = gateway.complete(CompletionRequest(model_name=model_name, prompt=prompt))
            candidates.append(_clean(response))
        except GatewayError:
            candidates.append(None)

    if review_path is not None:
        payload = {
            "question_id": spec.id,
            "original": spec.question,
            "candidates": candidates,
            "approved": [],  # fill in manually, then merge into the corpus file
        }
        atomic_write(review_path, json.dumps(payload, indent=2) + "\n")
    return candidates
