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
    expr_children,
    pattern_variables,
)
from .tokens import UNSUPPORTED_KEYWORDS, Token, tokenize, unescape_string

KNOWN_FUNCTIONS = {"count", "point", "point.distance"}

_INT64_DIGITS = len(str(2**63))

_MAX_DEPTH = 100

_NOT_LEVEL = 3
_COMPARISON_LEVEL = 4
_BINARY_LEVELS = {
    "OR": 1,
    "AND": 2,
    **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), _COMPARISON_LEVEL),
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
}

_KEYWORD_VALUES = {"TRUE": True, "FALSE": False, "NULL": None}

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
        # Each token's text, upper-cased: a keyword's key is its name and a
        # symbol's its text, and no other token's key is either, since a word
        # whose upper case is a keyword is a keyword.
        self.keys = [tok.text.upper() for tok in self.tokens]
        self.source = source
        self.pos = 0
        self.depth = 0
        self.node_patterns = 0

    # -- token helpers ---------------------------------------------------

    def fail(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(f"{expected}, found {tok.text!r}", tok.offset)

    def match(self, key: str) -> bool:
        """Consume the next token if it is the symbol or keyword ``key``."""
        if self.keys[self.pos] == key:
            self.pos += 1
            return True
        return False

    def expect(self, key: str) -> None:
        if self.keys[self.pos] != key:
            raise self.fail(f"expected {key}" if key.isalpha() else f"expected {key!r}")
        self.pos += 1

    def expect_identifier(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "identifier":
            raise self.fail(f"expected {what}")
        self.pos += 1
        return tok.text

    def nested(self, parse, *args):
        """``parse(*args)`` inside one more bracket or prefix operator."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply")
        parsed = parse(*args)
        self.depth -= 1
        return parsed

    def _reject_unsupported(self) -> None:
        key = self.keys[self.pos]
        if key in UNSUPPORTED_KEYWORDS:
            raise ParseError(f"unsupported construct {key}", self.tokens[self.pos].offset)

    def parse_list(self, parse_one) -> tuple:
        """One or more of what ``parse_one`` parses, separated by commas."""
        parsed = [parse_one()]
        while self.match(","):
            parsed.append(parse_one())
        return tuple(parsed)

    def parse_sliced_expr(self) -> tuple[Expr, str]:
        """An expression and its exact source text, which is never empty."""
        start = self.pos
        expr = self.parse_expr()
        first, last = self.tokens[start], self.tokens[self.pos - 1]
        return expr, self.source[first.offset : last.offset + len(last.text)].strip()

    # -- query structure ---------------------------------------------------

    def parse_query(self) -> Query:
        matches: list[MatchClause] = []
        wheres: list[Expr] = []
        self._reject_unsupported()
        while self.match("MATCH"):
            matches.append(MatchClause(self.parse_list(self.parse_path)))
            if self.match("WHERE"):
                wheres.append(self.parse_expr())
            self._reject_unsupported()

        self.expect("RETURN")
        distinct = self.match("DISTINCT")
        items = self.parse_list(self.parse_return_item)
        order_by: tuple[OrderItem, ...] = ()
        if self.match("ORDER"):
            self.expect("BY")
            order_by = self.parse_list(self.parse_order_item)

        limit: int | None = None
        if self.match("LIMIT"):
            tok = self.tokens[self.pos]
            if tok.kind != "integer":
                raise self.fail("LIMIT requires an integer")
            limit = _integer(tok)
            self.pos += 1

        self.match(";")
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self._reject_unsupported()
            raise ParseError(f"unexpected token {tok.text!r} after query", tok.offset)

        where = None
        for predicate in wheres:
            where = predicate if where is None else Binary("AND", where, predicate)
        query = Query(tuple(matches), where, distinct, items, order_by, limit)
        _validate(query)
        return query

    def parse_return_item(self) -> ReturnItem:
        expr, text = self.parse_sliced_expr()
        alias = self.expect_identifier("alias name") if self.match("AS") else None
        return ReturnItem(expr, alias, text)

    def parse_order_item(self) -> OrderItem:
        expr, text = self.parse_sliced_expr()
        key = self.keys[self.pos]
        ascending = key not in ("DESC", "DESCENDING")
        if key in ("ASC", "ASCENDING") or not ascending:
            self.pos += 1
        return OrderItem(expr, ascending, text)

    # -- patterns ----------------------------------------------------------

    def parse_path(self) -> PathPattern:
        nodes = [self.parse_node_pattern()]
        edges: list[EdgePattern] = []
        while self.keys[self.pos] in ("-", "<"):
            edges.append(self.parse_edge_pattern())
            nodes.append(self.parse_node_pattern())
        return PathPattern(tuple(nodes), tuple(edges))

    def parse_node_pattern(self) -> NodePattern:
        self.node_patterns += 1
        if self.node_patterns > _MAX_DEPTH:
            raise ParseError("pattern too long")
        self.expect("(")
        variable = self._variable()
        labels: list[str] = []
        while self.match(":"):
            labels.append(self.expect_identifier("label"))
        properties = self.parse_properties()
        self.expect(")")
        return NodePattern(variable, tuple(labels), properties)

    def _variable(self) -> str | None:
        """Consume an identifier naming a pattern variable, if one is next."""
        tok = self.tokens[self.pos]
        if tok.kind != "identifier":
            return None
        self.pos += 1
        return tok.text

    def parse_edge_pattern(self) -> EdgePattern:
        left_arrow = self.match("<")
        self.expect("-")
        variable = rel_type = None
        properties: tuple = ()
        if self.match("["):
            variable = self._variable()
            if self.match(":"):
                rel_type = self.expect_identifier("relationship type")
            if self.keys[self.pos] == "*":
                raise ParseError("unsupported construct: variable-length relationship", self.tokens[self.pos].offset)
            properties = self.parse_properties()
            self.expect("]")
        self.expect("-")
        right_arrow = self.match(">")
        if left_arrow and right_arrow:
            raise ParseError("relationship cannot point both ways")
        direction = "left" if left_arrow else "right" if right_arrow else "any"
        return EdgePattern(variable, rel_type, direction, properties)

    def parse_properties(self) -> tuple[tuple[str, Literal], ...]:
        """A pattern's ``{key: literal, ...}`` map if one is next, else none."""
        if self.keys[self.pos] != "{":
            return ()
        return self.parse_entries("property key", self.parse_pattern_literal)

    def parse_entries(self, what: str, parse_value) -> tuple:
        """``{key: value, ...}``, each value parsed by ``parse_value``."""
        self.expect("{")
        entries = []
        if not self.match("}"):
            while True:
                key = self.expect_identifier(what)
                self.expect(":")
                entries.append((key, parse_value()))
                if self.match("}"):
                    break
                self.expect(",")
        return tuple(entries)

    def parse_pattern_literal(self) -> Literal:
        negative = self.match("-")
        tok = self.tokens[self.pos]
        value = self._literal_value(negative)
        if value is NotImplemented:
            raise self.fail("expected literal value")
        self.pos += 1
        if negative and tok.kind not in ("integer", "float"):
            raise ParseError("'-' applies to numbers only in property maps", tok.offset)
        return Literal(value)

    def _literal_value(self, negative: bool = False):
        """The next token's literal value, NotImplemented if it is none.

        ``negative`` negates a number before its range is checked (the
        64-bit range is not symmetric) and is ignored for other kinds.
        """
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "integer":
            return _integer(tok, negative)
        if kind == "float":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError("float literal out of range", tok.offset)
            return -value if negative else value
        if kind == "string":
            return unescape_string(tok.text)
        return _KEYWORD_VALUES.get(self.keys[self.pos], NotImplemented)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_level: int = 1) -> Expr:
        """Parse operators binding at ``min_level`` or tighter (precedence climbing)."""
        keys = self.keys
        if min_level <= _NOT_LEVEL and keys[self.pos] == "NOT":
            self.pos += 1
            left: Expr = Unary("NOT", self.nested(self.parse_expr, _NOT_LEVEL))
        else:
            left = self.parse_unary() if keys[self.pos] == "-" else self.parse_primary()
        while True:
            op = keys[self.pos]
            level = _BINARY_LEVELS.get(op, 0)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_expr(level + 1)
            if level == _COMPARISON_LEVEL and _BINARY_LEVELS.get(keys[self.pos]) == _COMPARISON_LEVEL:
                raise ParseError("chained comparisons are not supported", self.tokens[self.pos].offset)
            left = Binary(op, left, right)

    def parse_unary(self) -> Expr:
        """A prefix minus and its operand."""
        self.pos += 1
        if self.tokens[self.pos].kind in ("integer", "float"):
            value = self._literal_value(negative=True)
            self.pos += 1
            return Literal(value)
        operand = self.nested(self.parse_unary if self.keys[self.pos] == "-" else self.parse_primary)
        is_number = isinstance(operand, Literal) and isinstance(operand.value, (int, float))
        # Negating -2**63 leaves 64 bits; execution reports that overflow.
        if is_number and not isinstance(operand.value, bool) and operand.value != _INT64_MIN:
            return Literal(-operand.value)
        return Unary("-", operand)

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "identifier":
            self.pos += 1
            keys = self.keys
            nxt = keys[self.pos]
            # Namespaced function, e.g. point.distance(a, b). Neither '.' nor
            # an identifier is the end token, so both lookaheads exist.
            if nxt == "." and self.tokens[self.pos + 1].kind == "identifier" and keys[self.pos + 2] == "(":
                member = self.tokens[self.pos + 1].text
                self.pos += 2
                return self.parse_call(f"{tok.text}.{member}".lower(), tok.offset)
            if nxt == "(":
                return self.parse_call(tok.text.lower(), tok.offset)
            if nxt == ".":
                self.pos += 1
                return PropertyAccess(tok.text, self.expect_identifier("property name"))
            return Variable(tok.text)
        if kind == "symbol":
            if tok.text == "(":
                self.pos += 1
                expr = self.nested(self.parse_expr)
                self.expect(")")
                return expr
            if tok.text == "{":
                return MapLiteral(self.nested(self.parse_entries, "map key", self.parse_expr))
        elif kind == "end":
            raise ParseError("unexpected end of query")
        else:
            self._reject_unsupported()
            value = self._literal_value()
            if value is not NotImplemented:
                self.pos += 1
                return Literal(value)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)

    def parse_call(self, name: str, offset: int) -> FunctionCall:
        if name not in KNOWN_FUNCTIONS:
            raise SemanticError(f"unknown function {name}()", offset)
        self.expect("(")
        if name == "count" and self.match("*"):
            self.expect(")")
            return FunctionCall("count", (), star=True)
        args = self.nested(self.parse_args)
        arity = {"count": 1, "point": 1, "point.distance": 2}[name]
        if len(args) != arity:
            raise SemanticError(f"{name}() takes {arity} argument(s), got {len(args)}", offset)
        return FunctionCall(name, tuple(args))

    def parse_args(self) -> list[Expr]:
        """A call's arguments, after its opening parenthesis."""
        args: list[Expr] = []
        if not self.match(")"):
            while True:
                args.append(self.parse_expr())
                if self.match(")"):
                    break
                self.expect(",")
        return args


def _scan(expr: Expr, names: set[str], depth: int = 1) -> bool:
    """Add the variables ``expr`` reads to ``names``; true if it holds count().

    Fails if ``expr`` has more than ``_MAX_DEPTH`` non-leaf nodes on one path.
    """
    kind = type(expr)
    if kind is PropertyAccess:
        names.add(expr.variable)
        return False
    if kind is Variable:
        names.add(expr.name)
        return False
    children = expr_children(expr)
    if children and depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply")
    aggregate = kind is FunctionCall and expr.name == "count"
    for child in children:
        aggregate |= _scan(child, names, depth + 1)
    return aggregate


def _validate(query: Query) -> None:
    # Every expression is walked once, before any other check, so a tree
    # nested too deeply fails first wherever it is.
    checks = []  # (clause, variables it reads, the error its aggregate is, if any)
    if query.where is not None:
        names: set[str] = set()
        checks.append(("WHERE", names, _scan(query.where, names) and "aggregation is not allowed in WHERE"))
    for item in query.items:
        names = set()
        if type(item.expr) is FunctionCall and item.expr.name == "count":  # its argument holds no aggregate
            misplaced = any([_scan(arg, names, 2) for arg in item.expr.args])
        else:
            misplaced = _scan(item.expr, names)
        checks.append(("RETURN", names, misplaced and "count() must be a top-level RETURN item"))
    order_aggregate = False
    for entry in query.order_by:
        order_aggregate |= _scan(entry.expr, set())
    node_vars, edge_vars = pattern_variables(query)
    shared = node_vars & edge_vars
    if shared:
        raise SemanticError(f"name used for both a node and a relationship: {sorted(shared)[0]}")
    seen: set[str] = set()
    for clause in query.matches:
        for path in clause.paths:
            for edge in path.edges:
                if edge.variable in seen:
                    raise SemanticError(f"relationship variable {edge.variable!r} is bound more than once")
                if edge.variable:
                    seen.add(edge.variable)
    for clause, names, error in checks:
        unbound = names - node_vars - edge_vars
        if unbound:
            raise SemanticError(f"variable {sorted(unbound)[0]!r} in {clause} is not bound by a MATCH pattern")
        if error:
            raise SemanticError(error)
    if order_aggregate:
        raise SemanticError("aggregation is not allowed in ORDER BY")


def parse_query(query_text: str) -> Query:
    """Tokenize ``query_text`` and parse it into a query AST."""
    return _Parser(tokenize(query_text), query_text).parse_query()
