"""Seeded random generators for property-style tests."""

from __future__ import annotations

import random

from graphqa.cypher.ast import (
    Binary,
    EdgePattern,
    FunctionCall,
    Literal,
    MatchClause,
    NodePattern,
    OrderItem,
    PathPattern,
    PropertyAccess,
    Query,
    ReturnItem,
    Unary,
    Variable,
)
from graphqa.graph.dataset import DatasetFile, NodeEntry, RelationshipEntry, dataset_to_graph
from graphqa.graph.store import PropertyGraph

LABELS = ["A", "B", "C"]
REL_TYPES = ["R", "S"]
PROP_KEYS = ["p", "q", "w"]
STRINGS = ["x", "tower", "a b", "it's", "s-1"]


def build_graph(nodes=(), rels=()) -> PropertyGraph:
    """A graph built the way a load builds one: dataset entries through ``dataset_to_graph``.

    ``nodes`` holds ``(labels, properties)`` pairs. ``rels`` holds
    ``(src, rel_type, dst)`` or ``(src, rel_type, dst, properties)``, where
    ``src`` and ``dst`` index ``nodes``; node ids are those indexes.
    """
    return dataset_to_graph(
        DatasetFile(
            [NodeEntry(list(labels), properties) for labels, properties in nodes],
            [RelationshipEntry(src, rel_type, dst, props[0] if props else {}) for src, rel_type, dst, *props in rels],
        )
    )


def random_graph(rng: random.Random, max_nodes: int = 30, max_rels: int = 40) -> PropertyGraph:
    nodes = []
    for _ in range(rng.randint(1, max_nodes)):
        labels = {rng.choice(LABELS)}
        if rng.random() < 0.3:
            labels.add(rng.choice(LABELS))
        props = {}
        for key in PROP_KEYS:
            roll = rng.random()
            if roll < 0.45:
                props[key] = rng.randint(0, 3)
            elif roll < 0.6:
                props[key] = rng.choice([0.5, 1.0, 2.5, -1.5])
            elif roll < 0.75:
                props[key] = rng.choice(STRINGS)
            elif roll < 0.8:
                props[key] = rng.random() < 0.5
        nodes.append((labels, props))
    ids = range(len(nodes))
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        src, dst = rng.choice(ids), rng.choice(ids)
        props = {"p": rng.randint(0, 2)} if rng.random() < 0.3 else {}
        rels.append((src, rng.choice(REL_TYPES), dst, props))
    return build_graph(nodes, rels)


def _random_literal(rng: random.Random) -> Literal:
    roll = rng.random()
    if roll < 0.4:
        return Literal(rng.randint(-3, 3))
    if roll < 0.6:
        return Literal(rng.choice([0.5, 1.5, -2.0, 3.25]))
    if roll < 0.8:
        return Literal(rng.choice(STRINGS))
    if roll < 0.9:
        return Literal(rng.random() < 0.5)
    return Literal(None)


def _random_pattern_props(rng: random.Random) -> tuple:
    if rng.random() < 0.6:
        return ()
    key = rng.choice(PROP_KEYS)
    value = _random_literal(rng)
    if value.value is None:
        value = Literal(rng.randint(0, 3))
    return ((key, value),)


def random_patterns(
    rng: random.Random, max_total_edges: int = 4
) -> tuple[tuple[MatchClause, ...], list[str]]:
    """Random MATCH clauses; returns (clauses, bound node/edge variable names).

    ``max_total_edges`` caps pattern edges across the whole query so the
    brute-force oracle's enumeration stays tractable.
    """
    node_vars: list[str] = []
    edge_vars: list[str] = []
    edge_counter = 0
    edge_budget = max_total_edges

    def node_pattern(force_var: bool = False) -> NodePattern:
        variable = None
        if force_var or rng.random() < 0.6:
            variable = rng.choice(["v0", "v1", "v2", "v3"])
            if variable not in node_vars:
                node_vars.append(variable)
        labels = (rng.choice(LABELS),) if rng.random() < 0.6 else ()
        return NodePattern(variable, labels, _random_pattern_props(rng))

    def edge_pattern() -> EdgePattern:
        nonlocal edge_counter
        variable = None
        if rng.random() < 0.3:
            variable = f"e{edge_counter}"  # unique: reuse is a semantic error
            edge_counter += 1
            edge_vars.append(variable)
        rel_type = rng.choice(REL_TYPES) if rng.random() < 0.6 else None
        direction = rng.choice(["right", "left", "any"])
        return EdgePattern(variable, rel_type, direction, _random_pattern_props(rng))

    clauses = []
    for clause_idx in range(rng.randint(1, 2)):
        paths = []
        for path_idx in range(rng.randint(1, 2)):
            length = rng.randint(1, 1 + min(2, edge_budget))
            nodes = [node_pattern(force_var=(clause_idx == 0 and path_idx == 0))]
            edges = []
            for _ in range(length - 1):
                edges.append(edge_pattern())
                nodes.append(node_pattern())
            edge_budget -= len(edges)
            paths.append(PathPattern(tuple(nodes), tuple(edges)))
        clauses.append(MatchClause(tuple(paths)))
    return tuple(clauses), node_vars + edge_vars


def _random_value_expr(rng: random.Random, variables: list[str], depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return PropertyAccess(rng.choice(variables), rng.choice(PROP_KEYS))
    if roll < 0.5:
        return _random_literal(rng)
    if roll < 0.6:
        return Variable(rng.choice(variables))
    if roll < 0.7:
        operand = _random_value_expr(rng, variables, depth + 1)
        # The parser folds a unary minus over numeric literals; mirror that.
        if isinstance(operand, Literal) and isinstance(operand.value, (int, float)) and not isinstance(operand.value, bool):
            return Literal(-operand.value)
        return Unary("-", operand)
    op = rng.choice(["+", "-", "*"])
    return Binary(op, _random_value_expr(rng, variables, depth + 1), _random_value_expr(rng, variables, depth + 1))


def _random_predicate(rng: random.Random, variables: list[str], depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.6:
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        return Binary(op, _random_value_expr(rng, variables, depth + 1), _random_value_expr(rng, variables, depth + 1))
    if roll < 0.75:
        return Unary("NOT", _random_predicate(rng, variables, depth + 1))
    op = rng.choice(["AND", "OR"])
    return Binary(op, _random_predicate(rng, variables, depth + 1), _random_predicate(rng, variables, depth + 1))


def random_query_ast(rng: random.Random, allow_order: bool = False, max_total_edges: int = 4) -> Query:
    """A semantically valid random query over the generator's label universe."""
    matches, variables = random_patterns(rng, max_total_edges)
    where = _random_predicate(rng, variables) if rng.random() < 0.6 else None

    items = []
    used_aliases: set[str] = set()
    has_aggregate = False
    for idx in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.2:
            expr = FunctionCall("count", (), star=True)
            has_aggregate = True
        elif roll < 0.3:
            expr = FunctionCall("count", (PropertyAccess(rng.choice(variables), rng.choice(PROP_KEYS)),))
            has_aggregate = True
        else:
            expr = _random_value_expr(rng, variables)
        alias = None
        if rng.random() < 0.5:
            alias = f"col{idx}"
            used_aliases.add(alias)
        items.append(ReturnItem(expr=expr, alias=alias))
    distinct = rng.random() < 0.2

    order_by: tuple = ()
    limit = None
    if allow_order:
        if rng.random() < 0.4 and not has_aggregate and not distinct:
            order_by = tuple(
                OrderItem(
                    expr=PropertyAccess(rng.choice(variables), rng.choice(PROP_KEYS)),
                    ascending=rng.random() < 0.5,
                )
                for _ in range(rng.randint(1, 2))
            )
        if rng.random() < 0.3:
            limit = rng.randint(0, 5)

    return Query(
        matches=matches,
        where=where,
        distinct=distinct,
        items=tuple(items),
        order_by=order_by,
        limit=limit,
    )


def random_scan_query(rng: random.Random) -> Query:
    """A query with a loose pattern, so most random graphs give it many rows.

    The pattern is one node, one edge, or a two-node cartesian product, with
    no WHERE. ORDER BY takes one to three keys over mixed-kind values in
    random directions; aggregated and DISTINCT queries order by aliases.
    """
    first = NodePattern("v0", (rng.choice(LABELS),) if rng.random() < 0.3 else ())
    second = NodePattern("v1", ())
    roll = rng.random()
    if roll < 0.4:
        paths, variables = (PathPattern((first,), ()),), ["v0"]
    elif roll < 0.8:
        rel_type = rng.choice(REL_TYPES) if rng.random() < 0.3 else None
        edge = EdgePattern("e0", rel_type, rng.choice(["right", "left", "any"]))
        paths, variables = (PathPattern((first, second), (edge,)),), ["v0", "v1", "e0"]
    else:
        paths, variables = (PathPattern((first,), ()), PathPattern((second,), ())), ["v0", "v1"]

    exprs = [_random_value_expr(rng, variables) for _ in range(rng.randint(1, 3))]
    aggregated = rng.random() < 0.3
    if aggregated:
        exprs.append(FunctionCall("count", (), star=True))
    items = tuple(ReturnItem(expr=expr, alias=f"col{i}") for i, expr in enumerate(exprs))
    distinct = not aggregated and rng.random() < 0.2

    keys = []
    for _ in range(rng.randint(1, 3)):
        if aggregated or distinct or rng.random() < 0.3:
            keys.append(Variable(f"col{rng.randrange(len(items))}"))
        else:
            keys.append(_random_value_expr(rng, variables))
    order_by = tuple(OrderItem(expr=key, ascending=rng.random() < 0.5) for key in keys)
    limit = rng.randint(0, 8) if rng.random() < 0.5 else None
    return Query(
        matches=(MatchClause(paths),),
        where=None,
        distinct=distinct,
        items=items,
        order_by=order_by,
        limit=limit,
    )
