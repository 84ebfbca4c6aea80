"""Independent brute-force query oracle for equivalence testing.

Implements the documented matching semantics by blunt enumeration: every
combination of (relationship, orientation) per edge slot and every node per
isolated pattern node is generated and checked, with no indexing, no
incremental binding, and a separate expression evaluator. Deliberately kept
free of imports from the engine's executor so a bug there cannot hide here.
"""

from __future__ import annotations

import itertools
from collections import Counter

from graphqa.cypher.ast import (
    Binary,
    FunctionCall,
    Literal,
    MapLiteral,
    PropertyAccess,
    Query,
    Unary,
    Variable,
    contains_aggregate,
)
from graphqa.cypher.geo import haversine_distance
from graphqa.cypher.records import Point
from graphqa.errors import RuntimeQueryError
from graphqa.graph.store import Node, PropertyGraph, Relationship


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _eq(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return a == b
        return None
    if _is_num(a) and _is_num(b):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, Node) and isinstance(b, Node):
        return a.id == b.id
    if isinstance(a, Relationship) and isinstance(b, Relationship):
        return a.id == b.id
    if isinstance(a, Point) and isinstance(b, Point):
        return a == b
    return None


def _lt(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, bool) and isinstance(b, bool):
        return a < b
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if _is_num(a) and _is_num(b):
        return a < b
    if isinstance(a, str) and isinstance(b, str):
        return a < b
    return None


def oracle_eval(expr, binding):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        return binding[expr.name]
    if isinstance(expr, PropertyAccess):
        target = binding.get(expr.variable)
        if isinstance(target, (Node, Relationship)):
            return target.properties.get(expr.key)
        return None
    if isinstance(expr, Unary):
        value = oracle_eval(expr.operand, binding)
        if expr.op == "NOT":
            if value is True:
                return False
            if value is False:
                return True
            return None
        return -value if _is_num(value) else None
    if isinstance(expr, MapLiteral):
        return {k: oracle_eval(v, binding) for k, v in expr.entries}
    if isinstance(expr, FunctionCall):
        if expr.name == "point":
            arg = oracle_eval(expr.args[0], binding)
            if not isinstance(arg, dict) or set(arg) != {"latitude", "longitude"}:
                if isinstance(arg, dict):
                    raise RuntimeQueryError("point() requires exactly latitude and longitude")
                return None
            lat, lon = arg["latitude"], arg["longitude"]
            if not (_is_num(lat) and _is_num(lon)):
                return None
            return Point(float(lat), float(lon))
        if expr.name == "point.distance":
            a = oracle_eval(expr.args[0], binding)
            b = oracle_eval(expr.args[1], binding)
            if not (isinstance(a, Point) and isinstance(b, Point)):
                return None
            return haversine_distance((a.latitude, a.longitude), (b.latitude, b.longitude))
        raise RuntimeQueryError(f"oracle cannot evaluate {expr.name}()")
    if isinstance(expr, Binary):
        op = expr.op
        if op == "AND":
            left = _to_bool(oracle_eval(expr.left, binding))
            right = _to_bool(oracle_eval(expr.right, binding))
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = _to_bool(oracle_eval(expr.left, binding))
            right = _to_bool(oracle_eval(expr.right, binding))
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return False
        a = oracle_eval(expr.left, binding)
        b = oracle_eval(expr.right, binding)
        if op == "=":
            return _eq(a, b)
        if op == "<>":
            e = _eq(a, b)
            return None if e is None else not e
        if op == "<":
            return _lt(a, b)
        if op == ">":
            return _lt(b, a)
        if op == "<=":
            e, l = _eq(a, b), _lt(a, b)
            if e is True or l is True:
                return True
            return None if (e is None or l is None) else False
        if op == ">=":
            e, g = _eq(a, b), _lt(b, a)
            if e is True or g is True:
                return True
            return None if (e is None or g is None) else False
        # arithmetic
        if a is None or b is None or not (_is_num(a) and _is_num(b)):
            return None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise RuntimeQueryError("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            return a / b
    raise RuntimeQueryError(f"oracle cannot evaluate {expr!r}")


def _to_bool(v):
    return v if isinstance(v, bool) or v is None else None


def _node_ok(node: Node, pat) -> bool:
    if any(label not in node.labels for label in pat.labels):
        return False
    return all(_eq(node.properties.get(k), lit.value) is True for k, lit in pat.properties)


def _edge_ok(rel: Relationship, pat) -> bool:
    if pat.rel_type is not None and rel.rel_type != pat.rel_type:
        return False
    return all(_eq(rel.properties.get(k), lit.value) is True for k, lit in pat.properties)


def _path_assignments(graph: PropertyGraph, path):
    """Yield (node_ids, rel_list) tuples for one path, unconstrained by vars."""
    nodes = path.nodes
    edges = path.edges
    if not edges:
        for node in graph.nodes():
            if _node_ok(node, nodes[0]):
                yield [node.id], []
        return

    slot_options = []
    for pat in edges:
        options = []
        for rel in graph.relationships():
            if not _edge_ok(rel, pat):
                continue
            if pat.direction in ("right", "any"):
                options.append((rel, rel.src, rel.dst))
            if pat.direction in ("left", "any"):
                if not (pat.direction == "any" and rel.src == rel.dst):
                    options.append((rel, rel.dst, rel.src))
        slot_options.append(options)

    for combo in itertools.product(*slot_options):
        chain_ok = all(combo[i][2] == combo[i + 1][1] for i in range(len(combo) - 1))
        if not chain_ok:
            continue
        node_ids = [combo[0][1]] + [entry[2] for entry in combo]
        if all(_node_ok(graph.node(nid), pat) for nid, pat in zip(node_ids, nodes)):
            yield node_ids, [entry[0] for entry in combo]


def _clause_assignments(graph: PropertyGraph, clause):
    """Yield per-clause (var_binding, rel_ids_used) with uniqueness enforced."""
    per_path = [list(_path_assignments(graph, path)) for path in clause.paths]
    for combo in itertools.product(*per_path):
        rel_ids = [rel.id for _, rels in combo for rel in rels]
        if len(set(rel_ids)) != len(rel_ids):
            continue  # relationship uniqueness within the clause
        binding: dict = {}
        ok = True
        for path, (node_ids, rels) in zip(clause.paths, combo):
            for pat, node_id in zip(path.nodes, node_ids):
                if pat.variable is None:
                    continue
                node = graph.node(node_id)
                if pat.variable in binding:
                    prior = binding[pat.variable]
                    if not (isinstance(prior, Node) and prior.id == node.id):
                        ok = False
                        break
                else:
                    binding[pat.variable] = node
            if not ok:
                break
            for pat, rel in zip(path.edges, rels):
                if pat.variable is None:
                    continue
                binding[pat.variable] = rel
        if ok:
            yield binding


def oracle_bindings(graph: PropertyGraph, query: Query):
    """All bindings: cross product of clause assignments, joined on shared vars."""
    results: list[dict] = [{}]
    for clause in query.matches:
        merged = []
        for base in results:
            for assignment in _clause_assignments(graph, clause):
                conflict = False
                for var, value in assignment.items():
                    if var in base:
                        prior = base[var]
                        same = (
                            isinstance(prior, Node)
                            and isinstance(value, Node)
                            and prior.id == value.id
                        ) or (
                            isinstance(prior, Relationship)
                            and isinstance(value, Relationship)
                            and prior.id == value.id
                        )
                        if not same:
                            conflict = True
                            break
                if not conflict:
                    combined = dict(base)
                    combined.update(assignment)
                    merged.append(combined)
        results = merged
    if query.where is not None:
        results = [b for b in results if _to_bool(oracle_eval(query.where, b)) is True]
    return results


def cell_key(value):
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if _is_num(value):
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Point):
        return ("point", value.latitude, value.longitude)
    raise TypeError(f"unkeyable {value!r}")


def oracle_rows(graph: PropertyGraph, query: Query) -> Counter:
    """Row multiset (as cell-key tuples) for queries without ORDER BY/LIMIT."""
    assert not query.order_by and query.limit is None, "oracle covers unordered queries"
    bindings = oracle_bindings(graph, query)
    items = query.items

    if any(contains_aggregate(item.expr) for item in items):
        plain = [i for i, item in enumerate(items) if not contains_aggregate(item.expr)]
        groups: dict = {}
        for b in bindings:
            values = {i: oracle_eval(items[i].expr, b) for i in plain}
            key = tuple(cell_key(values[i]) for i in plain)
            groups.setdefault(key, {"values": values, "members": []})["members"].append(b)
        if not plain and not groups:
            groups[()] = {"values": {}, "members": []}
        rows = []
        for bucket in groups.values():
            row = []
            for i, item in enumerate(items):
                if i in plain:
                    row.append(bucket["values"][i])
                else:
                    call = item.expr
                    if call.star:
                        row.append(len(bucket["members"]))
                    else:
                        row.append(
                            sum(1 for b in bucket["members"] if oracle_eval(call.args[0], b) is not None)
                        )
            rows.append(tuple(row))
    else:
        rows = [tuple(oracle_eval(item.expr, b) for item in items) for b in bindings]

    keyed = [tuple(cell_key(c) for c in row) for row in rows]
    if query.distinct:
        return Counter(set(keyed))
    return Counter(keyed)


def _number_order_key(value):
    """ORDER BY's order on numbers and null: numbers, then NaN, then null."""
    if value is None:
        return (2,)
    if not _is_num(value):
        raise TypeError(f"only numbers and null are ordered here, got {value!r}")
    return (1,) if value != value else (0, value)


def oracle_ordered_rows(graph: PropertyGraph, query: Query) -> list[tuple]:
    """Rows (as cell-key tuples) of a product of single-node patterns, with one
    numeric ORDER BY expression and no aggregate or DISTINCT, in order.

    Rows start in ascending node id of each pattern variable in written order
    (the executor's documented order), so equal keys keep that order. The key
    sees the row's columns with the pattern variables laid over them.
    """
    paths = [path for clause in query.matches for path in clause.paths]
    assert all(not path.edges and path.nodes[0].variable for path in paths), "products of named nodes only"
    assert len(query.order_by) == 1 and not query.distinct
    assert not any(contains_aggregate(item.expr) for item in query.items)
    variables = [path.nodes[0].variable for path in paths]
    bindings = sorted(oracle_bindings(graph, query), key=lambda b: [b[v].id for v in variables])
    columns = [item.column_name() for item in query.items]
    (entry,) = query.order_by
    rows, keys = [], []
    for binding in bindings:
        row = tuple(oracle_eval(item.expr, binding) for item in query.items)
        rows.append(row)
        keys.append(_number_order_key(oracle_eval(entry.expr, {**dict(zip(columns, row)), **binding})))
    order = sorted(range(len(rows)), key=keys.__getitem__, reverse=not entry.ascending)
    return [tuple(cell_key(cell) for cell in rows[i]) for i in order[: query.limit]]
