"""AST for the supported Cypher subset, plus a canonical pretty-printer.

Each node is a ``typing.NamedTuple``: read-only, copied and pickled as its
fields, with the ``Name(field=value, ...)`` repr that the parse-outcome
digest hashes. ``value_type`` (also used by ``records.Point`` and by the
pipeline's and the harness's records) makes two values equal only when they are of the same class and their fields are
equal, so no value equals a plain tuple. A trailing ``source_text`` (the
exact query slice, used for column naming as the reference database does)
is left out, so a pretty-printed and reparsed query equals the original
AST. A ``Literal`` compares its value's type too: ``true``, ``1`` and
``1.0`` match different properties, so a printer must not swap them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, TypeVar

from .tokens import escape_string

_V = TypeVar("_V", bound=type)


def value_type(cls: _V) -> _V:
    """Give a ``NamedTuple`` class the equality and hash described above; the
    key is ``cls._key`` if the class defines one, else the fields up to ``source_text``."""
    fields = cls._fields
    key = cls.__dict__.get("_key") or itemgetter(slice(len(fields) - (fields[-1] == "source_text")))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        # NotImplemented would let a plain tuple compare field by field.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = __eq__(self, other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(key(self))

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls


# --- expressions -----------------------------------------------------------


@value_type
class Literal(NamedTuple):
    value: int | float | str | bool | None

    def _key(self) -> tuple:
        return (type(self.value), self.value)


@value_type
class Variable(NamedTuple):
    name: str


@value_type
class PropertyAccess(NamedTuple):
    variable: str
    key: str


@value_type
class Unary(NamedTuple):
    op: str  # '-' or 'NOT'
    operand: Expr


@value_type
class Binary(NamedTuple):
    op: str  # + - * / = <> < <= > >= AND OR
    left: Expr
    right: Expr


@value_type
class MapLiteral(NamedTuple):
    entries: tuple[tuple[str, Expr], ...]


@value_type
class FunctionCall(NamedTuple):
    name: str  # normalized lowercase, e.g. 'count', 'point', 'point.distance'
    args: tuple[Expr, ...]
    star: bool = False  # count(*)


Expr = Literal | Variable | PropertyAccess | Unary | Binary | MapLiteral | FunctionCall


# --- patterns ---------------------------------------------------------------


@value_type
class NodePattern(NamedTuple):
    variable: str | None
    labels: tuple[str, ...]
    properties: tuple[tuple[str, Literal], ...] = ()


@value_type
class EdgePattern(NamedTuple):
    variable: str | None
    rel_type: str | None
    direction: str  # 'right' | 'left' | 'any'
    properties: tuple[tuple[str, Literal], ...] = ()


@value_type
class PathPattern(NamedTuple):
    nodes: tuple[NodePattern, ...]
    edges: tuple[EdgePattern, ...]  # len(edges) == len(nodes) - 1


@value_type
class MatchClause(NamedTuple):
    paths: tuple[PathPattern, ...]


# --- query ------------------------------------------------------------------


@value_type
class ReturnItem(NamedTuple):
    expr: Expr
    alias: str | None
    source_text: str = ""

    def column_name(self) -> str:
        return self.alias if self.alias is not None else (self.source_text or print_expr(self.expr))


@value_type
class OrderItem(NamedTuple):
    expr: Expr
    ascending: bool = True
    source_text: str = ""


@value_type
class Query(NamedTuple):
    matches: tuple[MatchClause, ...]
    where: Expr | None
    distinct: bool
    items: tuple[ReturnItem, ...]
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None


def pattern_variables(query: Query) -> tuple[set[str], set[str]]:
    """Return (node variables, edge variables) bound by the query's patterns."""
    node_vars: set[str] = set()
    edge_vars: set[str] = set()
    for clause in query.matches:
        for path in clause.paths:
            for node in path.nodes:
                if node.variable:
                    node_vars.add(node.variable)
            for edge in path.edges:
                if edge.variable:
                    edge_vars.add(edge.variable)
    return node_vars, edge_vars


def expr_children(expr: Expr) -> tuple[Expr, ...]:
    """The operands of an operator, call or map node; none for a leaf."""
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, MapLiteral):
        return tuple(value for _, value in expr.entries)
    return ()


def expr_variables(expr: Expr) -> set[str]:
    if isinstance(expr, Variable):
        return {expr.name}
    if isinstance(expr, PropertyAccess):
        return {expr.variable}
    out: set[str] = set()
    for child in expr_children(expr):
        out |= expr_variables(child)
    return out


def contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall) and expr.name == "count":
        return True
    return any(contains_aggregate(child) for child in expr_children(expr))


# --- pretty printer ---------------------------------------------------------


def _print_literal(value: int | float | str | bool | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return escape_string(value)
    return repr(value)


def print_expr(expr: Expr) -> str:
    """Canonical text for an expression; binaries are fully parenthesized."""
    if isinstance(expr, Literal):
        return _print_literal(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, PropertyAccess):
        return f"{expr.variable}.{expr.key}"
    if isinstance(expr, Unary):
        if expr.op == "NOT":
            return f"(NOT {print_expr(expr.operand)})"
        return f"(-{print_expr(expr.operand)})"
    if isinstance(expr, Binary):
        return f"({print_expr(expr.left)} {expr.op} {print_expr(expr.right)})"
    if isinstance(expr, MapLiteral):
        inner = ", ".join(f"{key}: {print_expr(value)}" for key, value in expr.entries)
        return "{" + inner + "}"
    if isinstance(expr, FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        return f"{expr.name}({', '.join(print_expr(a) for a in expr.args)})"
    raise TypeError(f"unknown expression node {expr!r}")


def _print_properties(props: tuple[tuple[str, Literal], ...]) -> str:
    if not props:
        return ""
    return " {" + ", ".join(f"{key}: {_print_literal(lit.value)}" for key, lit in props) + "}"


def _print_node(node: NodePattern) -> str:
    parts = node.variable or ""
    for label in node.labels:
        parts += f":{label}"
    return f"({parts}{_print_properties(node.properties)})"


def _print_edge(edge: EdgePattern) -> str:
    body = edge.variable or ""
    if edge.rel_type is not None:
        body += f":{edge.rel_type}"
    body += _print_properties(edge.properties)
    middle = f"[{body}]" if (body or edge.properties) else ""
    if edge.direction == "right":
        return f"-{middle}->"
    if edge.direction == "left":
        return f"<-{middle}-"
    return f"-{middle}-"


def print_query(query: Query) -> str:
    """Render a query in canonical form; reparsing yields an equal AST."""
    parts: list[str] = []
    for clause in query.matches:
        rendered_paths = []
        for path in clause.paths:
            text = _print_node(path.nodes[0])
            for edge, node in zip(path.edges, path.nodes[1:]):
                text += _print_edge(edge) + _print_node(node)
            rendered_paths.append(text)
        parts.append("MATCH " + ", ".join(rendered_paths))
    if query.where is not None:
        parts.append("WHERE " + print_expr(query.where))
    items = []
    for item in query.items:
        text = print_expr(item.expr)
        if item.alias is not None:
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(("RETURN DISTINCT " if query.distinct else "RETURN ") + ", ".join(items))
    if query.order_by:
        rendered = [
            print_expr(entry.expr) + ("" if entry.ascending else " DESC") for entry in query.order_by
        ]
        parts.append("ORDER BY " + ", ".join(rendered))
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)
