import hashlib
import random

import pytest

from graphqa.cypher import parse_query
from graphqa.cypher.tokens import tokenize
from graphqa.errors import LexError

REFERENCE_QUERY = "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"


def test_trivial_return_one():
    tokens = tokenize("RETURN 1")
    assert [(t.kind, t.text) for t in tokens] == [("keyword", "RETURN"), ("integer", "1")]


def test_tower_query_token_sequence_hand_derived():
    # Hand-tokenized expectation for the reference tower-4 query.
    expected = [
        ("keyword", "MATCH"),
        ("symbol", "("),
        ("identifier", "t"),
        ("symbol", ":"),
        ("identifier", "Tower"),
        ("symbol", "{"),
        ("identifier", "Tower"),
        ("symbol", ":"),
        ("integer", "4"),
        ("symbol", "}"),
        ("symbol", ")"),
        ("keyword", "RETURN"),
        ("identifier", "t"),
        ("symbol", "."),
        ("identifier", "Lat"),
        ("keyword", "AS"),
        ("identifier", "Lat"),
        ("symbol", ","),
        ("identifier", "t"),
        ("symbol", "."),
        ("identifier", "Long"),
        ("keyword", "AS"),
        ("identifier", "Long"),
    ]
    tokens = tokenize(REFERENCE_QUERY)
    assert [(t.kind, t.text) for t in tokens] == expected
    assert tokens[0].kind == "keyword" and tokens[0].text == "MATCH"
    assert len(tokens) == 23


def test_tokens_are_lossless_source_slices():
    queries = [
        REFERENCE_QUERY,
        "MATCH (a)-[:R]->(b) WHERE a.p <= -3.5e2 RETURN DISTINCT a.p AS x ORDER BY x DESC LIMIT 2;",
        "RETURN 'a  b', \"it's\", 1.5, true // trailing comment",
    ]
    for query in queries:
        rebuilt = list(query)
        for token in tokenize(query):
            # Each token's text must be exactly the source at its offset.
            assert query[token.offset : token.offset + len(token.text)] == token.text
            for idx in range(token.offset, token.offset + len(token.text)):
                rebuilt[idx] = None
        # Whatever tokens did not cover must be whitespace or comments.
        rest = "".join(ch for ch in rebuilt if ch is not None)
        assert all(ch.isspace() or ch == "/" for ch in rest) or "//" in query


def test_keywords_recognized_case_insensitively():
    tokens = tokenize("match (n) return n")
    assert tokens[0].kind == "keyword" and tokens[0].text.upper() == "MATCH"


def test_numbers_and_floats():
    kinds = [(t.kind, t.text) for t in tokenize("1 2.5 3e2 4.5e-1")]
    assert kinds == [("integer", "1"), ("float", "2.5"), ("float", "3e2"), ("float", "4.5e-1")]


def test_two_char_symbols():
    kinds = [(t.kind, t.text) for t in tokenize("a <= b >= c <> d < e > f")]
    symbols = [text for kind, text in kinds if kind == "symbol"]
    assert symbols == ["<=", ">=", "<>", "<", ">"]


def test_string_escapes():
    from graphqa.cypher.tokens import unescape_string

    (token,) = tokenize(r"'it\'s'")
    assert token.kind == "string"
    assert unescape_string(token.text) == "it's"


def test_unterminated_string_is_lex_error_with_offset():
    with pytest.raises(LexError) as excinfo:
        tokenize("MATCH (n) RETURN 'oops")
    assert excinfo.value.offset == 17


def test_illegal_character_is_lex_error():
    with pytest.raises(LexError) as excinfo:
        tokenize("MATCH (n) RETURN n ^ 2")
    assert excinfo.value.kind == "lex"


def test_numbers_take_ascii_digits_only():
    # Other Unicode digits pass str.isdigit but not int(); inside an
    # identifier they are ordinary identifier characters.
    for text, offset in [("RETURN ²", 7), ("RETURN 1²", 8), ("RETURN 1.٣", 9)]:
        with pytest.raises(LexError) as excinfo:
            tokenize(text)
        assert excinfo.value.offset == offset, text
    assert [(t.kind, t.text) for t in tokenize("x² 12")] == [("identifier", "x²"), ("integer", "12")]


# Pieces for the frozen-behaviour fuzz below: ASCII query material plus
# characters where str predicates and regex classes are easy to get wrong
# (non-ASCII digits and numerals, case-changing letters, a ligature, a
# control character that str.isspace accepts, and a no-break space).
FUZZ_PIECES = list("abcxyzAEeMRTN_019 \t\n.()[]{}:,=<>+-*/;|%^!'\"\\") + [
    "//", "\\'", "'x'", '"y"', "1.5e-3", "MATCH", "return",
    "²", "٣", "Ⅻ", "½", "ß", "İ", "ﬁ", "\x1c", "\xa0",
]

# SHA-256 of the tokenizer's outcomes on the fuzz strings, as computed with
# the earlier hand-written character-loop tokenizer.
FROZEN_FUZZ_DIGEST = "b14f6bd2c5adb22db9451e21ec968472f86a546411864196263e6375347c8ec1"


def test_tokenizer_outcomes_match_frozen_digest():
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(20_000):
        text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 24)))
        try:
            outcome = [(t.kind, t.text, t.offset) for t in tokenize(text)]
        except LexError as exc:
            outcome = (type(exc).__name__, str(exc), exc.offset)
        digest.update(repr(outcome).encode("utf-8"))
    assert digest.hexdigest() == FROZEN_FUZZ_DIGEST


@pytest.mark.parametrize(
    "text, message, offset",
    [
        pytest.param("RETURN ) ^", "illegal character '^'", 9, id="later-lex-error-beats-earlier-parse-error"),
        pytest.param("MATCH (n) WHERE n.p = 'x RETURN n", "unterminated string literal", 22, id="unterminated-quote"),
        pytest.param("MATCH (n) RETURN 12²", "illegal character '²'", 19, id="numeral-after-valid-prefix"),
        pytest.param("RETURN ^ ²", "illegal character '^'", 7, id="first-gap-beats-later-bad-word-start"),
        pytest.param("RETURN ² ^", "illegal character '²'", 7, id="first-bad-word-start-beats-later-gap"),
    ],
)
def test_the_first_lex_error_in_the_text_wins(text, message, offset):
    with pytest.raises(LexError) as excinfo:
        parse_query(text)
    assert (str(excinfo.value), excinfo.value.offset) == (f"{message} (at offset {offset})", offset)
