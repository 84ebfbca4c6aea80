"""Tokenizer for the supported Cypher subset.

Tokens keep their exact source text and offset, so the original query can be
reconstructed by splicing token spans back into the source (whitespace and
``//`` line comments live between spans). Keywords are recognized
case-insensitively; identifier and string token text is never altered.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_TWO_CHAR_SYMBOLS = ("<=", ">=", "<>")
_ONE_CHAR_SYMBOLS = set("()[]{}:,.=<>+-*/;|%")
# ASCII only: str.isdigit also admits digits such as '²' that int() rejects.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | integer | float | string | symbol
    text: str
    offset: int

    def upper(self) -> str:
        return self.text.upper()


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(query_text: str) -> list[Token]:
    """Split ``query_text`` into tokens; raises ``LexError`` with an offset."""
    tokens: list[Token] = []
    i = 0
    n = len(query_text)
    while i < n:
        ch = query_text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n and query_text[i + 1] == "/":
            while i < n and query_text[i] != "\n":
                i += 1
            continue
        if _is_ident_start(ch):
            start = i
            while i < n and _is_ident_char(query_text[i]):
                i += 1
            text = query_text[start:i]
            upper = text.upper()
            kind = "keyword" if upper in KEYWORDS or upper in UNSUPPORTED_KEYWORDS else "identifier"
            tokens.append(Token(kind, text, start))
            continue
        if ch in _DIGITS:
            start = i
            while i < n and query_text[i] in _DIGITS:
                i += 1
            is_float = False
            if i < n and query_text[i] == "." and i + 1 < n and query_text[i + 1] in _DIGITS:
                is_float = True
                i += 1
                while i < n and query_text[i] in _DIGITS:
                    i += 1
            if i < n and query_text[i] in "eE":
                j = i + 1
                if j < n and query_text[j] in "+-":
                    j += 1
                if j < n and query_text[j] in _DIGITS:
                    is_float = True
                    i = j
                    while i < n and query_text[i] in _DIGITS:
                        i += 1
            tokens.append(Token("float" if is_float else "integer", query_text[start:i], start))
            continue
        if ch in "'\"":
            quote = ch
            start = i
            i += 1
            while i < n:
                if query_text[i] == "\\":
                    i += 2
                    continue
                if query_text[i] == quote:
                    break
                i += 1
            if i >= n:
                raise LexError("unterminated string literal", start)
            i += 1
            tokens.append(Token("string", query_text[start:i], start))
            continue
        two = query_text[i : i + 2]
        if two in _TWO_CHAR_SYMBOLS:
            tokens.append(Token("symbol", two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            tokens.append(Token("symbol", ch, i))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", i)
    return tokens


def unescape_string(token_text: str) -> str:
    """Decode a string token (including its quotes) to its value."""
    body = token_text[1:-1]
    out: list[str] = []
    i = 0
    escapes = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(escapes.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def escape_string(value: str) -> str:
    """Encode a string value as a single-quoted Cypher literal."""
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
