"""AST for the supported Cypher subset, plus a canonical pretty-printer.

``source_text`` fields carry the exact query slice an expression came from
(used for result column naming, as the reference database does); they are
excluded from structural equality so a pretty-printed and reparsed query
compares equal to the original AST.
"""

from __future__ import annotations

from .tokens import escape_string

_set = object.__setattr__


class Frozen:
    """An immutable value whose equality, hash and repr come from ``__slots__``.

    Each subclass lists its fields in ``__slots__`` and sets them in
    ``__init__`` with ``_set``; assigning to a field afterwards raises
    ``AttributeError``. Two values are equal when they are of the same class
    and their fields other than ``source_text`` are equal. The repr shows
    every field: ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _compared: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._compared = tuple(name for name in cls.__slots__ if name != "source_text")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, whose parameters follow __slots__.
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


# --- expressions -----------------------------------------------------------


class Expr(Frozen):
    __slots__ = ()


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int | float | str | bool | None):
        _set(self, "value", value)


class Variable(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class PropertyAccess(Expr):
    __slots__ = ("variable", "key")

    def __init__(self, variable: str, key: str):
        _set(self, "variable", variable)
        _set(self, "key", key)


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        _set(self, "op", op)  # '-' or 'NOT'
        _set(self, "operand", operand)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)  # + - * / = <> < <= > >= AND OR
        _set(self, "left", left)
        _set(self, "right", right)


class MapLiteral(Expr):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, Expr], ...]):
        _set(self, "entries", entries)


class FunctionCall(Expr):
    __slots__ = ("name", "args", "star")

    def __init__(self, name: str, args: tuple[Expr, ...], star: bool = False):
        _set(self, "name", name)  # normalized lowercase, e.g. 'count', 'point', 'point.distance'
        _set(self, "args", args)
        _set(self, "star", star)  # count(*)


# --- patterns ---------------------------------------------------------------


class NodePattern(Frozen):
    __slots__ = ("variable", "labels", "properties")

    def __init__(
        self, variable: str | None, labels: tuple[str, ...], properties: tuple[tuple[str, Literal], ...] = ()
    ):
        _set(self, "variable", variable)
        _set(self, "labels", labels)
        _set(self, "properties", properties)


class EdgePattern(Frozen):
    __slots__ = ("variable", "rel_type", "direction", "properties")

    def __init__(
        self,
        variable: str | None,
        rel_type: str | None,
        direction: str,
        properties: tuple[tuple[str, Literal], ...] = (),
    ):
        _set(self, "variable", variable)
        _set(self, "rel_type", rel_type)
        _set(self, "direction", direction)  # 'right' | 'left' | 'any'
        _set(self, "properties", properties)


class PathPattern(Frozen):
    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[NodePattern, ...], edges: tuple[EdgePattern, ...]):
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)  # len(edges) == len(nodes) - 1


class MatchClause(Frozen):
    __slots__ = ("paths",)

    def __init__(self, paths: tuple[PathPattern, ...]):
        _set(self, "paths", paths)


# --- query ------------------------------------------------------------------


class ReturnItem(Frozen):
    __slots__ = ("expr", "alias", "source_text")

    def __init__(self, expr: Expr, alias: str | None, source_text: str = ""):
        _set(self, "expr", expr)
        _set(self, "alias", alias)
        _set(self, "source_text", source_text)

    def column_name(self) -> str:
        return self.alias if self.alias is not None else (self.source_text or print_expr(self.expr))


class OrderItem(Frozen):
    __slots__ = ("expr", "ascending", "source_text")

    def __init__(self, expr: Expr, ascending: bool = True, source_text: str = ""):
        _set(self, "expr", expr)
        _set(self, "ascending", ascending)
        _set(self, "source_text", source_text)


class Query(Frozen):
    __slots__ = ("matches", "where", "distinct", "items", "order_by", "limit")

    def __init__(
        self,
        matches: tuple[MatchClause, ...],
        where: Expr | None,
        distinct: bool,
        items: tuple[ReturnItem, ...],
        order_by: tuple[OrderItem, ...] = (),
        limit: int | None = None,
    ):
        _set(self, "matches", matches)
        _set(self, "where", where)
        _set(self, "distinct", distinct)
        _set(self, "items", items)
        _set(self, "order_by", order_by)
        _set(self, "limit", limit)


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
