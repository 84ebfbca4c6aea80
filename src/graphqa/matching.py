"""Token-boundary-aware value matching.

Expected values are canonical renderings (the same formatter the record
serializer uses). A value "occurs" in a text only when the surrounding
characters cannot extend it into a different token: the integer 9 is found in
``count(s)=9>`` but not inside ``19``, ``1009`` or ``32.9``, and a sensor
name is found inside quotes but not inside a longer hyphenated name.

Names match case-insensitively, and the text is folded once, not once per
value: a caller that tests values against a text lowercases it itself and
passes both copies to the private ``_value_occurs``.
"""

from __future__ import annotations

import re

_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
# Characters that would extend a numeric token (digits, letters, '.', '-', '_').
_NUMERIC_BOUNDARY = set("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ._-")
# Characters that would extend a name token.
_TEXT_BOUNDARY = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")
# A ``repr``-written text in value position: group 1 is a single-quoted body,
# group 2 a double-quoted one, each with its escapes still in place.
_OUTPUT_TEXT_RE = re.compile(r"""(?:=|: )(?:'([^'\\]*(?:\\.[^'\\]*)*)'|"([^"\\]*(?:\\.[^"\\]*)*)")""")
# The escapes ``repr`` writes in a text value.
_ESCAPE_RE = re.compile(r"\\(x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8}|.)")
_ESCAPED_CHARS = {"n": "\n", "r": "\r", "t": "\t"}


def _unescape(match: re.Match) -> str:
    code = match.group(1)
    return chr(int(code[1:], 16)) if len(code) > 1 else _ESCAPED_CHARS.get(code, code)


def is_numeric_text(value: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(value.strip()))


def _occurs(target: str, source: str, boundary: set[str]) -> bool:
    if not target:
        return False
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


def _value_occurs(value_text: str, text: str, folded: str) -> bool:
    """True when the canonical value rendering appears in ``text`` as a whole token.

    ``folded`` is ``text.lower()``, made once by the caller for all its values.
    """
    if is_numeric_text(value_text):
        return _occurs(value_text.strip(), text, _NUMERIC_BOUNDARY)
    return _occurs(value_text.lower(), folded, _TEXT_BOUNDARY)


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
    picked up. A value is read the way ``repr`` wrote it: in single quotes,
    or in double quotes when it holds an apostrophe, with its backslash
    escapes decoded. Empty strings are skipped.
    """
    bodies = (single or double for single, double in _OUTPUT_TEXT_RE.findall(serialized))
    return [_ESCAPE_RE.sub(_unescape, body) for body in bodies if body]


def numbers_match(a: float, b: float, rel_tol: float = 1e-9) -> bool:
    return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))
