"""Tokenizer for the supported Cypher subset.

One compiled pattern, ``_TOKEN``, is tried at each position in turn; the name
of the group that matched is the token's class. Whitespace and ``//`` line
comments match ``skip`` and produce no token. Tokens keep their exact source
text and offset, so the original query can be reconstructed by splicing token
spans back into the source. Keywords are recognized case-insensitively;
identifier and string token text is never altered.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import LexError

KEYWORDS = {
    "MATCH",
    "WHERE",
    "RETURN",
    "AS",
    "AND",
    "OR",
    "NOT",
    "DISTINCT",
    "ORDER",
    "BY",
    "ASC",
    "ASCENDING",
    "DESC",
    "DESCENDING",
    "LIMIT",
    "TRUE",
    "FALSE",
    "NULL",
}

# Recognized so the parser can reject them by name as a deliberate subset
# boundary instead of producing a confusing generic error.
UNSUPPORTED_KEYWORDS = {
    "CREATE",
    "MERGE",
    "DELETE",
    "DETACH",
    "SET",
    "REMOVE",
    "WITH",
    "UNWIND",
    "OPTIONAL",
    "CALL",
    "FOREACH",
    "UNION",
    "SKIP",
    "USING",
    "LOAD",
}

_KEYWORDS = KEYWORDS | UNSUPPORTED_KEYWORDS

# Alternatives are tried in order: ``number`` before ``word`` (``\w`` also
# matches digits) and ``skip`` before ``symbol`` (``//`` is a comment, ``/`` a
# symbol). ``number`` takes ASCII digits only: ``\d`` would also admit digits
# such as '٣'.
_TOKEN = re.compile(
    r"""
      (?P<skip>   \s+ | //[^\n]* )
    | (?P<number> [0-9]+ (?: \.[0-9]+ )? (?: [eE][+-]?[0-9]+ )? )
    | (?P<word>   \w+ )
    | (?P<string> ' [^'\\]* (?: \\. [^'\\]* )* '
                | " [^"\\]* (?: \\. [^"\\]* )* " )
    | (?P<symbol> <= | >= | <> | [()\[\]{}:,.=<>+\-*/;|%] )
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


class Token(NamedTuple):
    kind: str  # keyword | identifier | integer | float | string | symbol
    text: str
    offset: int

    def upper(self) -> str:
        return self.text.upper()


def tokenize(query_text: str) -> list[Token]:
    """Split ``query_text`` into tokens; raises ``LexError`` with an offset."""
    tokens: list[Token] = []
    pos = 0
    end = len(query_text)
    while pos < end:
        m = _TOKEN.match(query_text, pos)
        if m is None:
            if query_text[pos] in "'\"":
                raise LexError("unterminated string literal", pos)
            raise LexError(f"illegal character {query_text[pos]!r}", pos)
        kind = m.lastgroup
        text = m.group()
        if kind == "word":
            # \w also matches digits and numerals such as '٣' and 'Ⅻ', which
            # may continue an identifier but not start one.
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"illegal character {text[0]!r}", pos)
            kind = "keyword" if text.upper() in _KEYWORDS else "identifier"
        elif kind == "number":
            kind = "integer" if text.isdigit() else "float"
        if kind != "skip":
            tokens.append(Token(kind, text, pos))
        pos = m.end()
    return tokens


def unescape_string(token_text: str) -> str:
    """Decode a string token (including its quotes) to its value.

    A backslash escapes the character after it; ``\\n``, ``\\t`` and ``\\r``
    stand for control characters. A trailing lone backslash is kept.
    """
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), token_text[1:-1])


def escape_string(value: str) -> str:
    """Encode a string value as a single-quoted Cypher literal."""
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
