"""Tokenizer for the supported Cypher subset.

One compiled pattern, ``_PIECE``, cuts the whole text into pieces in a single
``findall``. A piece is a token, a run of whitespace or a ``//`` line comment,
each with the whitespace after it; its first character tells which, and only
tokens are kept. Each offset is the running length of the pieces before it.
``findall`` passes over characters that start no piece, so a text that holds
one comes up short, and ``_first_error`` then finds the first such character.
Tokens keep their exact source text and offset, so the original query can be
reconstructed by splicing token spans back into the source. Keywords are
recognized case-insensitively; identifier and string token text is never
altered.
"""

from __future__ import annotations

import re
import string
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

# Alternatives are tried in order: the ``//`` comment before the ``/`` symbol,
# ``<=`` before ``<``, and a number before a word (``\w`` also matches
# digits). Numbers take ASCII digits only: ``\d`` would also admit digits such
# as '٣'. No token ends in whitespace, and ``str.rstrip`` strips just what
# ``\s`` matches. Python 3.10 has no atomic groups or possessive quantifiers.
_PIECE = re.compile(
    r"""
    (?: //[^\n]*
      | <= | >= | <> | [()\[\]{}:,.=<>+\-*/;|%]
      | \s+
      | [0-9]+ (?: \.[0-9]+ )? (?: [eE][+-]?[0-9]+ )?
      | \w+
      | ' [^'\\]* (?: \\. [^'\\]* )* '
      | " [^"\\]* (?: \\. [^"\\]* )* "
    ) \s*
    """,
    re.VERBOSE | re.DOTALL,
)

# The kind of piece each ASCII character starts, but for rare whitespace; ``/``
# starts both the symbol and a comment.
_FIRST = {
    **dict.fromkeys("()[]{}:,.=<>+-*;|%", "symbol"),
    **dict.fromkeys(string.digits, "number"),
    **dict.fromkeys(string.ascii_letters + "_", "word"),
    **dict.fromkeys(" \t\n\r", "skip"),
    "'": "string",
    '"': "string",
    "/": "slash",
}

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


class Token(NamedTuple):
    kind: str  # keyword | identifier | integer | float | string | symbol
    text: str
    offset: int


def _other_kind(char: str) -> str:
    """The kind of piece a character missing from ``_FIRST`` starts."""
    if char.isspace():
        return "skip"
    # \w also matches digits and numerals such as '٣' and 'Ⅻ', which may
    # continue an identifier but not start one.
    return "word" if char.isalpha() else "bad"


def tokenize(query_text: str) -> list[Token]:
    """Split ``query_text`` into tokens; raises ``LexError`` with an offset."""
    tokens: list[Token] = []
    offset = 0
    for piece in _PIECE.findall(query_text):
        kind = _FIRST.get(piece[0]) or _other_kind(piece[0])
        text = piece.rstrip()
        if kind == "word":
            kind = "keyword" if text.upper() in _KEYWORDS else "identifier"
        elif kind == "number":
            kind = "integer" if text.isdigit() else "float"
        elif kind == "slash" and len(text) == 1:
            kind = "symbol"
        elif kind == "bad":
            raise _first_error(query_text)
        if kind != "skip" and kind != "slash":  # a comment is a slash piece
            tokens.append(tuple.__new__(Token, (kind, text, offset)))  # skips Token's Python __new__
        offset += len(piece)
    if offset != len(query_text):
        raise _first_error(query_text)
    return tokens


def _first_error(query_text: str) -> LexError:
    """The error at the first character that starts no piece or a bad one."""
    pos = 0
    for match in _PIECE.finditer(query_text):
        if match.start() != pos:
            break
        if (_FIRST.get(query_text[pos]) or _other_kind(query_text[pos])) == "bad":
            return LexError(f"illegal character {query_text[pos]!r}", pos)
        pos = match.end()
    if query_text[pos] in "'\"":
        return LexError("unterminated string literal", pos)
    return LexError(f"illegal character {query_text[pos]!r}", pos)


def unescape_string(token_text: str) -> str:
    """Decode a string token (including its quotes) to its value.

    A backslash escapes the character after it; ``\\n``, ``\\t`` and ``\\r``
    stand for control characters. A trailing lone backslash is kept.
    """
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), token_text[1:-1])


def escape_string(value: str) -> str:
    """Encode a string value as a single-quoted Cypher literal."""
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
