"""Precedence-climbing parser for the supported Cypher subset.

Grammar (read-only queries):

    query   := match+ RETURN [DISTINCT] item (',' item)*
               [ORDER BY sort (',' sort)*] [LIMIT int] [';']
             | RETURN ...                      (constant queries)
    match   := MATCH path (',' path)* [WHERE expr]
    path    := node (edge node)*
    node    := '(' [var] (':' label)* [props] ')'
    edge    := ['<'] '-' ['[' [var] [':' type] [props] ']'] '-' ['>']
    props   := '{' key ':' literal (',' key ':' literal)* '}'

Expressions support property access, variables, literals, arithmetic
(+ - * /), comparisons (= <> < <= > >=), AND/OR/NOT, and the functions
count(*), count(expr), point({latitude, longitude}) and point.distance(a, b).
Operators bind from loosest to tightest as follows; binary operators of one
level associate to the left:

    1  OR
    2  AND
    3  NOT x                   (prefix)
    4  = <> < <= > >=          (one per operand: a = b = c is an error)
    5  + -
    6  * /
       -x                      (prefix, tighter than any binary operator)

An expression may nest at most ``_MAX_DEPTH`` (100) levels. The parser counts
the parentheses, prefix operators, call argument lists and map literals
around each token, and each WHERE, RETURN and ORDER BY tree may have at most
that many non-leaf nodes on one path: an operator chain parses in a loop but
nests in the tree that every later walk recurses through. Past either limit
the query fails with ``expression nested too deeply``. The executor nests one
generator per node pattern, so the MATCH clauses of a query may hold at most
``_MAX_DEPTH`` node patterns in all; past that it fails with ``pattern too
long``.

Write clauses and other unsupported constructs fail with a parse error that
names the construct; WHERE may follow each MATCH and all WHERE predicates are
conjoined into the single query-level predicate.
"""

from __future__ import annotations

import math

from ..errors import ParseError, SemanticError
from ..graph.store import _INT64_MAX, _INT64_MIN
from .ast import (
    Binary,
    EdgePattern,
    Expr,
    FunctionCall,
    Literal,
    MapLiteral,
    MatchClause,
    NodePattern,
    OrderItem,
    PathPattern,
    PropertyAccess,
    Query,
    ReturnItem,
    Unary,
    Variable,
    contains_aggregate,
    expr_children,
    expr_variables,
    pattern_variables,
)
from .tokens import UNSUPPORTED_KEYWORDS, Token, tokenize, unescape_string

KNOWN_FUNCTIONS = {"count", "point", "point.distance"}

_INT64_DIGITS = len(str(2**63))

_MAX_DEPTH = 100

_NOT_LEVEL = 3
_COMPARISON_LEVEL = 4
_BINARY_LEVELS = {
    ("keyword", "OR"): 1,
    ("keyword", "AND"): 2,
    **{("symbol", op): _COMPARISON_LEVEL for op in ("=", "<>", "<", "<=", ">", ">=")},
    ("symbol", "+"): 5,
    ("symbol", "-"): 5,
    ("symbol", "*"): 6,
    ("symbol", "/"): 6,
}

# Appended to every token list, so looking ahead always finds a token.
_END = Token("end", "end of query", None)


def _integer(tok: Token, negative: bool = False) -> int:
    """An integer token's value, negated if ``negative``; it must fit 64 bits.

    The digit count is checked first: ``int()`` refuses very long strings.
    """
    digits = tok.text.lstrip("0") or "0"
    if len(digits) <= _INT64_DIGITS:
        value = -int(digits) if negative else int(digits)
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
    raise ParseError("integer literal out of 64-bit range", tok.offset)


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        # The end token makes every lookahead a token: the parser never
        # consumes it, so ``pos`` always indexes the padded list.
        self.tokens = [*tokens, _END]
        self.source = source
        self.pos = 0
        self.depth = 0
        self.node_patterns = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{expected}, found {tok.text!r}", tok.offset)

    def match_symbol(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == text:
            self.pos += 1
            return True
        return False

    def match_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.upper() == word:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, text: str) -> None:
        if not self.match_symbol(text):
            raise self.fail(f"expected {text!r}")

    def expect_keyword(self, word: str) -> None:
        if not self.match_keyword(word):
            raise self.fail(f"expected {word}")

    def expect_identifier(self, what: str) -> Token:
        if self.peek().kind != "identifier":
            raise self.fail(f"expected {what}")
        return self.advance()

    def nest(self) -> None:
        """Enter one more bracket or prefix operator; undone by ``depth -= 1``."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply")

    def _reject_unsupported(self) -> None:
        tok = self.peek()
        if tok.kind == "keyword" and tok.upper() in UNSUPPORTED_KEYWORDS:
            raise ParseError(f"unsupported construct {tok.upper()}", tok.offset)

    def _slice(self, start_idx: int, end_idx: int) -> str:
        """Exact source text spanning tokens [start_idx, end_idx); never empty."""
        first = self.tokens[start_idx]
        last = self.tokens[end_idx - 1]
        return self.source[first.offset : last.offset + len(last.text)].strip()

    # -- query structure ---------------------------------------------------

    def parse_query(self) -> Query:
        matches: list[MatchClause] = []
        wheres: list[Expr] = []
        self._reject_unsupported()
        while self.match_keyword("MATCH"):
            paths = [self.parse_path()]
            while self.match_symbol(","):
                paths.append(self.parse_path())
            matches.append(MatchClause(tuple(paths)))
            if self.match_keyword("WHERE"):
                wheres.append(self.parse_expr())
            self._reject_unsupported()

        self.expect_keyword("RETURN")
        distinct = self.match_keyword("DISTINCT")
        items = [self.parse_return_item()]
        while self.match_symbol(","):
            items.append(self.parse_return_item())

        order_by: list[OrderItem] = []
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.match_symbol(","):
                order_by.append(self.parse_order_item())

        limit: int | None = None
        if self.match_keyword("LIMIT"):
            if self.peek().kind != "integer":
                raise self.fail("LIMIT requires an integer")
            limit = _integer(self.advance())

        self.match_symbol(";")
        tok = self.peek()
        if tok.kind != "end":
            self._reject_unsupported()
            raise ParseError(f"unexpected token {tok.text!r} after query", tok.offset)

        where = None
        for predicate in wheres:
            where = predicate if where is None else Binary("AND", where, predicate)
        query = Query(
            matches=tuple(matches),
            where=where,
            distinct=distinct,
            items=tuple(items),
            order_by=tuple(order_by),
            limit=limit,
        )
        _validate(query)
        return query

    def parse_return_item(self) -> ReturnItem:
        start = self.pos
        expr = self.parse_expr()
        text = self._slice(start, self.pos)
        alias = None
        if self.match_keyword("AS"):
            alias = self.expect_identifier("alias name").text
        return ReturnItem(expr=expr, alias=alias, source_text=text)

    def parse_order_item(self) -> OrderItem:
        start = self.pos
        expr = self.parse_expr()
        text = self._slice(start, self.pos)
        ascending = True
        tok = self.peek()
        if tok.kind == "keyword":
            word = tok.upper()
            if word in ("ASC", "ASCENDING"):
                self.advance()
            elif word in ("DESC", "DESCENDING"):
                self.advance()
                ascending = False
        return OrderItem(expr=expr, ascending=ascending, source_text=text)

    # -- patterns ----------------------------------------------------------

    def parse_path(self) -> PathPattern:
        nodes = [self.parse_node_pattern()]
        edges: list[EdgePattern] = []
        while (tok := self.peek()).kind == "symbol" and tok.text in ("-", "<"):
            edges.append(self.parse_edge_pattern())
            nodes.append(self.parse_node_pattern())
        return PathPattern(tuple(nodes), tuple(edges))

    def parse_node_pattern(self) -> NodePattern:
        self.node_patterns += 1
        if self.node_patterns > _MAX_DEPTH:
            raise ParseError("pattern too long")
        self.expect_symbol("(")
        variable = None
        if self.peek().kind == "identifier":
            variable = self.advance().text
        labels: list[str] = []
        while self.match_symbol(":"):
            labels.append(self.expect_identifier("label").text)
        properties = self.parse_property_map() if self.peek().text == "{" else ()
        self.expect_symbol(")")
        return NodePattern(variable, tuple(labels), properties)

    def parse_edge_pattern(self) -> EdgePattern:
        left_arrow = self.match_symbol("<")
        self.expect_symbol("-")
        variable = None
        rel_type = None
        properties: tuple = ()
        if self.match_symbol("["):
            if self.peek().kind == "identifier":
                variable = self.advance().text
            if self.match_symbol(":"):
                rel_type = self.expect_identifier("relationship type").text
            tok = self.peek()
            if tok.text == "*":
                raise ParseError("unsupported construct: variable-length relationship", tok.offset)
            if tok.text == "{":
                properties = self.parse_property_map()
            self.expect_symbol("]")
        self.expect_symbol("-")
        right_arrow = self.match_symbol(">")
        if left_arrow and right_arrow:
            raise ParseError("relationship cannot point both ways")
        direction = "left" if left_arrow else "right" if right_arrow else "any"
        return EdgePattern(variable, rel_type, direction, properties)

    def parse_property_map(self) -> tuple[tuple[str, Literal], ...]:
        self.expect_symbol("{")
        entries: list[tuple[str, Literal]] = []
        if not self.match_symbol("}"):
            while True:
                key = self.expect_identifier("property key").text
                self.expect_symbol(":")
                entries.append((key, self.parse_pattern_literal()))
                if self.match_symbol("}"):
                    break
                self.expect_symbol(",")
        return tuple(entries)

    def parse_pattern_literal(self) -> Literal:
        negative = self.match_symbol("-")
        tok = self.peek()
        value = self._literal_value(tok, negative)
        if value is NotImplemented:
            raise self.fail("expected literal value")
        self.advance()
        if negative and tok.kind not in ("integer", "float"):
            raise ParseError("'-' applies to numbers only in property maps", tok.offset)
        return Literal(value)

    def _literal_value(self, tok: Token, negative: bool = False):
        """The token's literal value, NotImplemented if it is none.

        ``negative`` negates a number before its range is checked (the
        64-bit range is not symmetric) and is ignored for other kinds.
        """
        if tok.kind == "integer":
            return _integer(tok, negative)
        if tok.kind == "float":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError("float literal out of range", tok.offset)
            return -value if negative else value
        if tok.kind == "string":
            return unescape_string(tok.text)
        if tok.kind == "keyword":
            word = tok.upper()
            if word == "TRUE":
                return True
            if word == "FALSE":
                return False
            if word == "NULL":
                return None
        return NotImplemented

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_level: int = 1) -> Expr:
        """Parse operators binding at ``min_level`` or tighter (precedence climbing)."""
        if min_level <= _NOT_LEVEL and self.match_keyword("NOT"):
            self.nest()
            left: Expr = Unary("NOT", self.parse_expr(_NOT_LEVEL))
            self.depth -= 1
        else:
            left = self.parse_unary()
        while True:
            tok = self.peek()
            op = tok.upper() if tok.kind == "keyword" else tok.text
            level = _BINARY_LEVELS.get((tok.kind, op), 0)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_expr(level + 1)
            if level == _COMPARISON_LEVEL:
                follow = self.peek()
                if _BINARY_LEVELS.get((follow.kind, follow.text)) == _COMPARISON_LEVEL:
                    raise ParseError("chained comparisons are not supported", follow.offset)
            left = Binary(op, left, right)

    def parse_unary(self) -> Expr:
        if self.match_symbol("-"):
            tok = self.peek()
            if tok.kind in ("integer", "float"):
                self.advance()
                return Literal(self._literal_value(tok, negative=True))
            self.nest()
            operand = self.parse_unary()
            self.depth -= 1
            is_number = isinstance(operand, Literal) and isinstance(operand.value, (int, float))
            # Negating -2**63 leaves 64 bits; execution reports that overflow.
            if is_number and not isinstance(operand.value, bool) and operand.value != _INT64_MIN:
                return Literal(-operand.value)
            return Unary("-", operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        self._reject_unsupported()

        value = self._literal_value(tok)
        if value is not NotImplemented:
            self.advance()
            return Literal(value)

        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            self.nest()
            expr = self.parse_expr()
            self.depth -= 1
            self.expect_symbol(")")
            return expr

        if tok.kind == "symbol" and tok.text == "{":
            return self.parse_map_literal()

        if tok.kind == "identifier":
            name = self.advance().text
            nxt = self.peek()
            # Namespaced function, e.g. point.distance(a, b). Neither '.' nor
            # an identifier is the end token, so both lookaheads exist.
            if (
                nxt.text == "."
                and self.tokens[self.pos + 1].kind == "identifier"
                and self.tokens[self.pos + 2].text == "("
            ):
                self.advance()
                member = self.advance().text
                return self.parse_call(f"{name}.{member}".lower(), tok.offset)
            if nxt.text == "(":
                return self.parse_call(name.lower(), tok.offset)
            if nxt.text == ".":
                self.advance()
                key = self.expect_identifier("property name").text
                return PropertyAccess(name, key)
            return Variable(name)

        if tok.kind == "end":
            raise ParseError("unexpected end of query")
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)

    def parse_map_literal(self) -> MapLiteral:
        self.expect_symbol("{")
        self.nest()
        entries: list[tuple[str, Expr]] = []
        if not self.match_symbol("}"):
            while True:
                key = self.expect_identifier("map key").text
                self.expect_symbol(":")
                entries.append((key, self.parse_expr()))
                if self.match_symbol("}"):
                    break
                self.expect_symbol(",")
        self.depth -= 1
        return MapLiteral(tuple(entries))

    def parse_call(self, name: str, offset: int) -> FunctionCall:
        if name not in KNOWN_FUNCTIONS:
            raise SemanticError(f"unknown function {name}()", offset)
        self.expect_symbol("(")
        if name == "count" and self.match_symbol("*"):
            self.expect_symbol(")")
            return FunctionCall("count", (), star=True)
        self.nest()
        args: list[Expr] = []
        if not self.match_symbol(")"):
            while True:
                args.append(self.parse_expr())
                if self.match_symbol(")"):
                    break
                self.expect_symbol(",")
        self.depth -= 1
        arity = {"count": 1, "point": 1, "point.distance": 2}[name]
        if len(args) != arity:
            raise SemanticError(f"{name}() takes {arity} argument(s), got {len(args)}", offset)
        return FunctionCall(name, tuple(args))


def _check_depth(expr: Expr, depth: int = 1) -> None:
    """Fail if ``expr`` has more than ``_MAX_DEPTH`` non-leaf nodes on one path."""
    children = expr_children(expr)
    if children and depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply")
    for child in children:
        _check_depth(child, depth + 1)


def _validate(query: Query) -> None:
    if query.where is not None:
        _check_depth(query.where)
    for item in (*query.items, *query.order_by):
        _check_depth(item.expr)
    node_vars, edge_vars = pattern_variables(query)
    shared = node_vars & edge_vars
    if shared:
        raise SemanticError(f"name used for both a node and a relationship: {sorted(shared)[0]}")
    seen_edge_vars: set[str] = set()
    for clause in query.matches:
        for path in clause.paths:
            for edge in path.edges:
                if edge.variable:
                    if edge.variable in seen_edge_vars:
                        raise SemanticError(
                            f"relationship variable {edge.variable!r} is bound more than once"
                        )
                    seen_edge_vars.add(edge.variable)
    bound = node_vars | edge_vars

    def check_bound(expr: Expr, context: str) -> None:
        unbound = expr_variables(expr) - bound
        if unbound:
            raise SemanticError(f"variable {sorted(unbound)[0]!r} in {context} is not bound by a MATCH pattern")

    if query.where is not None:
        check_bound(query.where, "WHERE")
        if contains_aggregate(query.where):
            raise SemanticError("aggregation is not allowed in WHERE")
    for item in query.items:
        check_bound(item.expr, "RETURN")
        if contains_aggregate(item.expr) and not (
            isinstance(item.expr, FunctionCall) and item.expr.name == "count"
        ):
            raise SemanticError("count() must be a top-level RETURN item")
    for entry in query.order_by:
        if contains_aggregate(entry.expr):
            raise SemanticError("aggregation is not allowed in ORDER BY")


def parse_query(query_text: str) -> Query:
    """Tokenize ``query_text`` and parse it into a query AST."""
    return _Parser(tokenize(query_text), query_text).parse_query()
