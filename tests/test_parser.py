import hashlib
import os
import random

import pytest

from generators import random_query_ast
from graphqa.cypher import parse_query
from graphqa.cypher.ast import print_query
from graphqa.cypher.tokens import tokenize
from graphqa.cypher.ast import (
    Binary,
    FunctionCall,
    Literal,
    PropertyAccess,
    Variable,
)
from graphqa.errors import EngineError, ParseError, SemanticError
from graphqa.llm import Transcript, extract_cypher

REFERENCE_QUERY = "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"


def test_tower_query_ast_shape():
    query = parse_query(REFERENCE_QUERY)
    assert len(query.matches) == 1
    (path,) = query.matches[0].paths
    (node,) = path.nodes
    assert node.variable == "t"
    assert node.labels == ("Tower",)
    assert node.properties == (("Tower", Literal(4)),)
    assert [item.alias for item in query.items] == ["Lat", "Long"]
    assert query.items[0].expr == PropertyAccess("t", "Lat")
    assert query.items[0].column_name() == "Lat"
    assert not query.distinct and query.limit is None and not query.order_by


def test_minimal_match_return():
    query = parse_query("MATCH (n) RETURN n")
    assert query.items[0].expr == Variable("n")
    assert query.items[0].column_name() == "n"


def test_unsupported_constructs_named_in_error():
    for text, construct in [
        ("CREATE (n) RETURN n", "CREATE"),
        ("MERGE (n:Tower) RETURN n", "MERGE"),
        ("MATCH (n) WITH n RETURN n", "WITH"),
        ("MATCH (n) RETURN n UNION MATCH (m) RETURN m", "UNION"),
        ("MATCH (n) RETURN n SKIP 2", "SKIP"),
    ]:
        with pytest.raises(ParseError) as excinfo:
            parse_query(text)
        assert construct in str(excinfo.value)


def test_variable_length_pattern_rejected():
    with pytest.raises(ParseError):
        parse_query("MATCH (a)-[*1..2]->(b) RETURN a")


def test_multi_match_and_multi_pattern():
    query = parse_query("MATCH (a:Tower), (b:Tower) MATCH (a)-[:HAS_SENSOR]->(s) RETURN a, b, s")
    assert len(query.matches) == 2
    assert len(query.matches[0].paths) == 2
    assert len(query.matches[1].paths[0].edges) == 1


def test_where_precedence_and_not():
    query = parse_query("MATCH (a) WHERE NOT a.p = 1 AND a.q > 2 OR a.w < 3 RETURN a")
    # OR at the top, AND below it, NOT tightest.
    assert isinstance(query.where, Binary) and query.where.op == "OR"
    assert query.where.left.op == "AND"
    assert query.where.left.left.op == "NOT"


def test_per_match_where_clauses_are_conjoined():
    query = parse_query("MATCH (a) WHERE a.p = 1 MATCH (b) WHERE b.q = 2 RETURN a, b")
    assert isinstance(query.where, Binary) and query.where.op == "AND"


def test_edge_directions():
    for text, direction in [
        ("MATCH (a)-[:R]->(b) RETURN a", "right"),
        ("MATCH (a)<-[:R]-(b) RETURN a", "left"),
        ("MATCH (a)-[:R]-(b) RETURN a", "any"),
        ("MATCH (a)-->(b) RETURN a", "right"),
        ("MATCH (a)--(b) RETURN a", "any"),
        ("MATCH (a)<--(b) RETURN a", "left"),
    ]:
        (path,) = parse_query(text).matches[0].paths
        assert path.edges[0].direction == direction


def test_point_functions_parse():
    query = parse_query(
        "MATCH (a:Tower), (b:Tower) RETURN point.distance("
        "point({latitude: a.Lat, longitude: a.Long}), point({latitude: b.Lat, longitude: b.Long})) AS d"
    )
    call = query.items[0].expr
    assert isinstance(call, FunctionCall) and call.name == "point.distance"
    assert call.args[0].name == "point"


def test_count_star_and_count_expr():
    query = parse_query("MATCH (n) RETURN count(*), count(n.p)")
    star, counted = (item.expr for item in query.items)
    assert star.star is True and counted.star is False
    assert parse_query("MATCH (n) RETURN count(*)").items[0].column_name() == "count(*)"


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse_query("MATCH (n) RETURN m")  # unbound variable
    with pytest.raises(SemanticError):
        parse_query("MATCH (n) WHERE x.p = 1 RETURN n")
    with pytest.raises(SemanticError):
        parse_query("MATCH (n)-[n:R]->(m) RETURN n")  # node/edge name clash
    with pytest.raises(SemanticError):
        parse_query("MATCH (a)-[e:R]->(b)-[e:S]->(c) RETURN a")  # edge var reuse
    with pytest.raises(SemanticError):
        parse_query("MATCH (n) RETURN size(n)")  # unknown function
    with pytest.raises(SemanticError):
        parse_query("MATCH (n) RETURN count(n) + 1")  # aggregate must be top-level
    with pytest.raises(SemanticError):
        parse_query("MATCH (n) WHERE count(*) > 1 RETURN n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_query("MATCH (t:Tower {")
    with pytest.raises(ParseError):
        parse_query("MATCH (n) RETURN")
    with pytest.raises(ParseError):
        parse_query("RETURN 1 2")
    with pytest.raises(ParseError):
        parse_query("MATCH (n) RETURN n LIMIT x")
    with pytest.raises(ParseError):
        parse_query("MATCH (a)-[:R]->(b) WHERE a.p = 1 = 2 RETURN a")


def test_trailing_semicolon_accepted():
    assert parse_query("MATCH (n) RETURN n;") == parse_query("MATCH (n) RETURN n")


def test_order_by_and_limit():
    query = parse_query("MATCH (n) RETURN n.p AS x ORDER BY x DESC, n.q LIMIT 3")
    assert query.limit == 3
    assert [entry.ascending for entry in query.order_by] == [False, True]


def test_column_name_is_source_slice():
    query = parse_query("MATCH (n)  RETURN   n.p + 1")
    assert query.items[0].column_name() == "n.p + 1"


def test_pretty_print_round_trip_on_reference_queries(corpus):
    for spec in corpus:
        query = parse_query(spec.ground_truth_query)
        assert parse_query(print_query(query)) == query


def test_pretty_print_round_trip_random_asts_smoke():
    rng = random.Random(2024)
    for _ in range(100):
        ast = random_query_ast(rng, allow_order=True)
        printed = print_query(ast)
        assert parse_query(printed) == ast, printed


# Pieces for the frozen-behaviour fuzz below: every keyword and symbol the
# parser branches on, a few unsupported keywords, names that are functions or
# labels, and number literals at and past the 64-bit and float ranges.
SOUP_PIECES = [
    "MATCH", "WHERE", "RETURN", "AS", "AND", "or", "NOT", "not", "DISTINCT", "ORDER", "BY", "DESC",
    "asc", "LIMIT", "true", "NULL", "CREATE", "WITH",
    "(", ")", "[", "]", "{", "}", ":", ",", ".", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", ";",
    "n", "m", "r", "Tower", "point", "distance", "count", "size",
    "0", "7", "2.5", "1e999", "9223372036854775808", "'x'",
]
SOUP_PREFIXES = ["", "RETURN ", "MATCH (n) RETURN ", "MATCH (n)-[r:R]->(m) WHERE "]
SEPARATORS = [" ", " ", "  ", "\n"]


def _value_text(rng: random.Random, depth: int = 0) -> str:
    """A random value expression: arithmetic, unary minus, parentheses, calls and maps."""
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice(["n.p", "m.q", "n", "r.p", "1", "2.5", "-3", "0.5e1", "'a b'", "true", "null"])
    if roll < 0.45:
        return "-" + rng.choice(["", " "]) + _value_text(rng, depth + 1)
    if roll < 0.55:
        return "(" + _value_text(rng, depth + 1) + ")"
    if roll < 0.62:
        first, second = _value_text(rng, depth + 1), _value_text(rng, depth + 1)
        return rng.choice(
            [
                f"point({{latitude: {first}, longitude: {second}}})",
                f"point.distance({first}, {second})",
                f"{{k: {first}, j: {second}}}",
            ]
        )
    op = rng.choice(["+", "-", "*", "/"])
    sep = rng.choice(SEPARATORS)
    return _value_text(rng, depth + 1) + sep + op + sep + _value_text(rng, depth + 1)


def _predicate_text(rng: random.Random, depth: int = 0) -> str:
    """A random predicate with mixed precedence; a few are malformed on purpose."""
    roll = rng.random()
    sep = rng.choice(SEPARATORS)
    if depth >= 3 or roll < 0.35:
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        return _value_text(rng, depth + 1) + sep + op + sep + _value_text(rng, depth + 1)
    if roll < 0.45:
        return rng.choice(["NOT ", "not "]) + _predicate_text(rng, depth + 1)
    if roll < 0.55:
        return "(" + _predicate_text(rng, depth + 1) + ")"
    if roll < 0.6:
        return _value_text(rng, depth + 1)
    if roll < 0.65:
        # Chained comparisons, NOT after a comparison or an arithmetic
        # operator, a dangling operator, an aggregate: each is an error.
        left, right = _value_text(rng, depth + 1), _value_text(rng, depth + 1)
        return rng.choice(
            [
                f"{left} < {right} <= {left}",
                f"{left} = NOT {right}",
                f"{left} + NOT {right}",
                f"{left} AND",
                f"count({left}) > 1",
                f"NOT - NOT {right}",
            ]
        )
    op = rng.choice(["OR", "or", "AND", "and"])
    return _predicate_text(rng, depth + 1) + sep + op + sep + _predicate_text(rng, depth + 1)


def _return_item_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["count(*)", "count(n.p)", "count(n.p + 1)"])
    return _predicate_text(rng) if roll < 0.4 else _value_text(rng)


def _mutated(rng: random.Random, query_text: str) -> str:
    texts = [t.text for t in tokenize(query_text)]
    for _ in range(rng.randint(1, 3)):
        idx = rng.randrange(len(texts))
        action = rng.randrange(5)
        if action == 0 and len(texts) > 1:
            del texts[idx]
        elif action == 1:
            texts.insert(idx, texts[idx])
        elif action == 2 and idx + 1 < len(texts):
            texts[idx], texts[idx + 1] = texts[idx + 1], texts[idx]
        elif action == 3:
            texts.insert(idx, rng.choice(SOUP_PIECES))
        else:
            texts = texts[: max(idx, 1)]
    return " ".join(texts)


def _parse_outcome(text: str):
    try:
        return repr(parse_query(text))
    except EngineError as exc:
        return (type(exc).__name__, str(exc), exc.offset)


# SHA-256 of the parser's outcomes on the generated queries, as computed with
# the earlier recursive-descent parser (one method per precedence level).
FROZEN_PARSE_DIGEST = "ec06b827eb12e39a4622819418a5fa9cd28721f8bce9dab456b2e9b11705597b"


def test_parse_outcomes_match_frozen_digest(corpus):
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    texts = []
    for _ in range(4_000):
        pieces = [rng.choice(SOUP_PIECES) for _ in range(rng.randint(0, 16))]
        texts.append(rng.choice(SOUP_PREFIXES) + rng.choice(SEPARATORS).join(pieces))
    for _ in range(4_000):
        where = f" WHERE {_predicate_text(rng)}" if rng.random() < 0.7 else ""
        order = f" ORDER BY {_value_text(rng)} DESC" if rng.random() < 0.3 else ""
        items = ", ".join(_return_item_text(rng) for _ in range(rng.randint(1, 3)))
        texts.append(f"MATCH (n)-[r:R]->(m){where} RETURN {items}{order}")
    references = [spec.ground_truth_query for spec in corpus]
    for _ in range(2_000):
        texts.append(_mutated(rng, rng.choice(references)))
    for text in texts:
        digest.update(repr(_parse_outcome(text)).encode("utf-8"))
    assert digest.hexdigest() == FROZEN_PARSE_DIGEST


def _shipped_queries(transcripts_dir, templates, corpus) -> list[str]:
    """Every query extracted from a shipped stage-1 reply, then the corpus references."""
    task1_prefix = templates["task1"].body.split("{question}")[0]
    queries = []
    for name in sorted(os.listdir(transcripts_dir)):
        for entry in Transcript.load(os.path.join(transcripts_dir, name)).entries:
            if entry.prompt.startswith(task1_prefix):
                query = extract_cypher(entry.response).extracted_query
                if query is not None:
                    queries.append(query)
    return queries + [spec.ground_truth_query for spec in corpus]


def _token_outcome(text: str):
    try:
        return [tuple(token) for token in tokenize(text)]
    except EngineError as exc:
        return (type(exc).__name__, str(exc), exc.offset)


# SHA-256 of the token lists and parse outcomes of the queries the models
# wrote in the shipped transcripts and of the corpus references.
SHIPPED_QUERY_COUNT = 295
SHIPPED_OUTCOME_DIGEST = "aee0e6bbac5e74f6c418e5682ae5066c3ae43b9b6e72add53e9ee3fae788872a"


def test_shipped_query_outcomes_match_frozen_digest(transcripts_dir, templates, corpus):
    queries = _shipped_queries(transcripts_dir, templates, corpus)
    digest = hashlib.sha256()
    for text in queries:
        digest.update(repr((_token_outcome(text), _parse_outcome(text))).encode("utf-8"))
    assert (len(queries), digest.hexdigest()) == (SHIPPED_QUERY_COUNT, SHIPPED_OUTCOME_DIGEST)
