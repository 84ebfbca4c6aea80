"""Token-boundary-aware value matching.

Expected values are canonical renderings (the same formatter the record
serializer uses). A value "occurs" in a text only when the surrounding
characters cannot extend it into a different token: the integer 9 is found in
``count(s)=9>`` but not inside ``19``, ``1009`` or ``32.9``, and a sensor
name is found inside quotes but not inside a longer hyphenated name.
"""

from __future__ import annotations

import re

_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
# Characters that would extend a numeric token (digits, letters, '.', '-', '_').
_NUMERIC_BOUNDARY = set("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ._-")
# Characters that would extend a name token.
_TEXT_BOUNDARY = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def is_numeric_text(value: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(value.strip()))


def _occurs(needle: str, haystack: str, boundary: set[str], fold_case: bool) -> bool:
    if not needle:
        return False
    source = haystack.lower() if fold_case else haystack
    target = needle.lower() if fold_case else needle
    start = 0
    while True:
        idx = source.find(target, start)
        if idx < 0:
            return False
        before = source[idx - 1] if idx > 0 else ""
        after_idx = idx + len(target)
        after = source[after_idx] if after_idx < len(source) else ""
        if before not in boundary and after not in boundary:
            return True
        start = idx + 1


def value_occurs(value_text: str, text: str) -> bool:
    """True when the canonical value rendering appears as a whole token."""
    if is_numeric_text(value_text):
        return _occurs(value_text.strip(), text, _NUMERIC_BOUNDARY, fold_case=False)
    return _occurs(value_text, text, _TEXT_BOUNDARY, fold_case=True)


def find_numbers(text: str) -> list[float]:
    """Standalone numeric tokens in free text (units/degree marks tolerated).

    A trailing '.' is sentence punctuation, not a token extension: the regex
    already consumes maximal number spans, so a digit can never follow it.
    """
    out: list[float] = []
    for match in _NUMBER_RE.finditer(text):
        start, end = match.span()
        before = text[start - 1] if start > 0 else ""
        after = text[end] if end < len(text) else ""
        if before in _NUMERIC_BOUNDARY or after in _TEXT_BOUNDARY:
            continue
        out.append(float(match.group()))
    return out


def find_output_text_values(serialized: str) -> list[str]:
    """Text values carried by serialized record output.

    Matches quoted strings in value position only (after ``=`` for record
    cells, after ``: `` for property-map entries), so property keys are not
    picked up.
    """
    return re.findall(r"(?:=|: )'([^']+)'", serialized)


def numbers_match(a: float, b: float, rel_tol: float = 1e-9) -> bool:
    return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))
