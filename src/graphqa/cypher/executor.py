"""Query execution over a property graph, which nothing writes to once
``dataset_to_graph`` has built it.

Matching semantics (shared contract with the brute-force oracle used in the
test suite):

- A pattern node with no label matches every node; labels must all be present
  on the matched node; inline property maps are equality filters.
- Directed pattern edges follow the arrow; undirected edges match either
  direction, and a self-loop matches an undirected edge once.
- Within one MATCH clause, matched relationships are pairwise distinct
  (relationship uniqueness); across MATCH clauses there is no such constraint.
- Repeating a node variable constrains it to the same node everywhere;
  anonymous pattern parts still multiply rows once per distinct assignment.
- Comparisons and arithmetic over null or mismatched types yield unknown,
  and unknown collapses to false when filtering (no full three-valued logic).
- count() groups implicitly by all non-aggregated return items; ORDER BY and
  LIMIT apply after projection; null sorts as the largest value, and NaN as
  the largest number. All NaN values form one group.
- Division by zero, and an integer result outside 64 bits, are runtime
  errors; reading a missing property is not an error and yields null.

How it runs: ``execute`` compiles every expression once into a closure, so
no row re-dispatches on the AST. Matching is a pipeline of generators, one
stage per pattern part, that expands each node through the store's adjacency
lists. The stages write their variables into one scope dict they share, and
WHERE runs on it as soon as the last stage has filled it. Every query is one
pull over that scope: a group keeps its first values and counters; a RETURN
whose every item is count(*) or count() of a pattern variable (never null,
as there is no OPTIONAL MATCH) counts the bindings WHERE keeps and builds no
group key; and ORDER BY and LIMIT key each row before they pull the next and
keep only the rows LIMIT can return (under mixed sort directions, at most
twice that many). A labelled start node whose first inline entry is a
number, string or boolean takes its candidates from the store's equality
index instead of the label's nodes, and still tests each one in full; one
with one label and no map takes that label's nodes untested. Each path start
that no earlier part binds finds its pool before the first pull, and if any
pool is empty the stream is empty, so a product with an empty part ends at
once. An edge stage tests the relationship type and the label subset inline,
calls a property test only for an inline map, and reaches the far node by
indexing the store's id-ordered node list. Bindings come out in the order of
a scan of nodes and relationships by ascending id, so the row order without
ORDER BY does not depend on how the store is indexed. ORDER BY breaks ties
by row position and reads the binding laid over the projected row. If no
RETURN item can fail (each is a literal, a property access or a pattern
variable) and ORDER BY reads pattern variables only, a row carries a copy of
its binding, and only the rows LIMIT keeps are projected. ``point()`` builds
every point from its map; ``point.distance`` prepares each point it gets
(degrees, radians and the latitude's cosine), once per node if its argument
reads one variable that holds a node, so a closest-pair query over n nodes
prepares n points, not two per pair; the memo lives only as long as one
``execute`` call. Errors are raised only when a binding reaches the part of
the query that fails, in binding order, so a query that matches nothing
succeeds.

Each query has a budget, held by one ``_Work`` per ``execute`` call. Every
stage counts the candidates it examines, in bulk per item it pulls: a scan
adds its pool's size, an expansion the node's adjacency length. Past
``_WORK_LIMIT`` candidates (about 4.2M), or past ``_SECONDS_LIMIT`` (5 s),
checked each time the count crosses a multiple of 4,096, the query fails
with ``BudgetError``. The 3-way product of the shipped graph's 135 nodes
examines about 2.48M candidates in under half a second, and still answers.

All functions here only read the graph, and a built graph does not change,
so independent queries may safely execute concurrently.
"""

from __future__ import annotations

import heapq
import time
from itertools import compress, islice, repeat
from operator import add, attrgetter, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator

from ..errors import BudgetError, RuntimeQueryError, SemanticError, ValidationError
from ..graph.store import _INT64_MAX, _INT64_MIN, Node, PropertyGraph, Relationship
from .ast import (
    Binary,
    EdgePattern,
    Expr,
    FunctionCall,
    Literal,
    MapLiteral,
    NodePattern,
    PropertyAccess,
    Query,
    Unary,
    Variable,
    contains_aggregate,
    expr_variables,
    pattern_variables,
)
from .geo import prepare_point, prepared_distance
from .records import CellValue, Point, ResultSet

Binding = dict[str, Node | Relationship]
Compiled = Callable[[dict], CellValue]


# --- value semantics ---------------------------------------------------------

# Value kinds, numbered in ORDER BY order. Numbers, strings and booleans
# compare among themselves; maps and unknown kinds neither group nor sort.
NUM, STR, BOOL, POINT, NODE, REL, MAP, OTHER, NULL = 1, 2, 3, 4, 5, 6, 7, 8, 9
_KINDS = {
    int: NUM,
    float: NUM,
    str: STR,
    bool: BOOL,
    Point: POINT,
    Node: NODE,
    Relationship: REL,
    dict: MAP,
    type(None): NULL,
}
_NAN_KEY = (NUM + 0.5,)  # after every number, +inf included; before strings
_NULL_KEY = (NULL,)


def _kind(value: CellValue) -> int:
    found = _KINDS.get(type(value))
    if found is None:  # a subclass of one of the value types
        found = next((k for cls, k in _KINDS.items() if isinstance(value, cls)), OTHER)
    return found


def is_numeric(value: object) -> bool:
    t = type(value)
    return t is int or t is float or (t not in _KINDS and _kind(value) == NUM)


# Types whose values compare with Python's own operators when both sides
# have exactly that type; every other pair, subclasses included, goes
# through the kinds.
_SCALARS = frozenset({int, float, str, bool})


def value_equals(a: CellValue, b: CellValue) -> bool | None:
    """Three-valued equality; ``None`` means unknown."""
    t = type(a)
    if t is type(b) and t in _SCALARS:
        return a == b
    ka = _KINDS.get(t) or _kind(a)
    if ka != (_KINDS.get(type(b)) or _kind(b)) or ka >= MAP:
        return None
    return a == b


def value_less_than(a: CellValue, b: CellValue) -> bool | None:
    t = type(a)
    if t is type(b) and t in _SCALARS:
        return a < b
    ka = _KINDS.get(t) or _kind(a)
    if ka != (_KINDS.get(type(b)) or _kind(b)) or ka > BOOL:
        return None
    return a < b


def group_key(value: CellValue):
    """Hashable key: equal for values that group together, ordered as ORDER BY.

    Equivalence is that of ``value_equals``, except that every NaN is one
    group. Maps and unknown kinds raise ``RuntimeQueryError``.
    """
    k = _kind(value)
    if k <= BOOL:
        return _NAN_KEY if value != value else (k, value)
    if k == NODE or k == REL:
        return (k, value.id)
    if k == POINT:
        return (k, value.latitude, value.longitude)
    if k == NULL:
        return _NULL_KEY
    raise RuntimeQueryError(f"ungroupable value {value!r}")


class _Unorderable:
    """Sort key of a value ORDER BY cannot order; comparing it raises.

    The error waits for a comparison, so a single row still sorts.
    """

    __slots__ = ("value",)

    def __init__(self, value: CellValue):
        self.value = value

    def _fail(self, other):
        raise RuntimeQueryError(f"ungroupable value {self.value!r}")

    __lt__ = __gt__ = __le__ = __ge__ = _fail


def sort_key(value: CellValue):
    if type(value) is float and value == value:  # the usual key, a distance
        return (NUM, value)
    try:
        return group_key(value)
    except RuntimeQueryError:
        return _Unorderable(value)


# --- expression compilation --------------------------------------------------


def _raiser(error: Exception) -> Compiled:
    def fail(scope):
        raise error

    return fail


def _divide(a, b):
    if b == 0:
        raise RuntimeQueryError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": _divide}


def _int64(value):
    """The value, unless it is an integer the store could not hold."""
    if type(value) is int and not _INT64_MIN <= value <= _INT64_MAX:
        raise RuntimeQueryError("integer overflow")
    return value


def _not_equal(a, b):
    eq = value_equals(a, b)
    return None if eq is None else not eq


def _less_or_equal(a, b):
    eq, lt = value_equals(a, b), value_less_than(a, b)
    if eq is True or lt is True:
        return True
    return None if (eq is None or lt is None) else False


_COMPARISONS = {
    "=": value_equals,
    "<>": _not_equal,
    "<": value_less_than,
    ">": lambda a, b: value_less_than(b, a),
    "<=": _less_or_equal,
    ">=": lambda a, b: _less_or_equal(b, a),
}


def _compile(expr: Expr) -> Compiled:
    """Compile a non-aggregate expression into ``scope -> value``.

    ``scope`` maps names to values: a binding, or for ORDER BY a binding laid
    over the projected row, so pattern variables shadow column names.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda scope: value
    if isinstance(expr, Variable):
        return _compile_variable(expr.name)
    if isinstance(expr, PropertyAccess):
        variable, key = expr.variable, expr.key

        def read(scope):
            try:  # only nodes and relationships have properties
                return scope[variable].properties.get(key)
            except (KeyError, AttributeError):
                return None

        return read
    if isinstance(expr, Unary):
        operand = _compile(expr.operand)
        if expr.op == "NOT":

            def negate(scope):
                value = operand(scope)
                return None if value is not True and value is not False else not value

            return negate

        def minus(scope):
            value = operand(scope)
            return _int64(-value) if is_numeric(value) else None

        return minus
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, MapLiteral):
        entries = [(key, _compile(value)) for key, value in expr.entries]
        return lambda scope: {key: value(scope) for key, value in entries}
    if isinstance(expr, FunctionCall):
        return _compile_function(expr)
    return _raiser(RuntimeQueryError(f"cannot evaluate expression {expr!r}"))


def _compile_variable(name: str) -> Compiled:
    def lookup(scope):
        try:
            return scope[name]
        except KeyError:
            raise SemanticError(f"variable {name!r} is not bound") from None

    return lookup


def _compile_binary(expr: Binary) -> Compiled:
    left, right = _compile(expr.left), _compile(expr.right)
    if expr.op == "AND":

        def conjunction(scope):
            a = left(scope)
            if a is False:
                return False
            b = right(scope)
            if b is False:
                return False
            return True if a is True and b is True else None

        return conjunction
    if expr.op == "OR":

        def disjunction(scope):
            a = left(scope)
            if a is True:
                return True
            b = right(scope)
            if b is True:
                return True
            return False if a is False and b is False else None

        return disjunction
    compare = _COMPARISONS.get(expr.op)
    if compare is not None:
        return lambda scope: compare(left(scope), right(scope))
    op = expr.op
    arithmetic = _ARITHMETIC.get(op)

    def calculate(scope):
        a, b = left(scope), right(scope)
        if not (is_numeric(a) and is_numeric(b)):
            return None
        if arithmetic is None:
            raise RuntimeQueryError(f"unknown arithmetic operator {op!r}")
        return _int64(arithmetic(a, b))

    return calculate


def _compile_function(call: FunctionCall) -> Compiled:
    if call.name == "count":
        return _raiser(SemanticError("count() outside of a RETURN item"))
    if call.name == "point":
        compiled = _compile(call.args[0])

        def point(scope):
            value = compiled(scope)
            if not isinstance(value, dict):
                return None
            if set(value) != _POINT_KEYS:
                raise RuntimeQueryError("point() requires exactly latitude and longitude")
            lat, lon = value["latitude"], value["longitude"]
            return Point(float(lat), float(lon)) if is_numeric(lat) and is_numeric(lon) else None

        return point
    if call.name == "point.distance":
        first, second = _compile_location(call.args[0]), _compile_location(call.args[1])

        def distance(scope):
            a, b = first(scope), second(scope)
            if a is None or b is None:
                return None
            try:
                return prepared_distance(a, b)
            except ValidationError as exc:
                raise RuntimeQueryError(str(exc)) from exc

        return distance
    return _raiser(SemanticError(f"unknown function {call.name}()"))


_POINT_KEYS = {"latitude", "longitude"}


_UNSET = object()


def _compile_location(arg: Expr) -> Compiled:
    """An argument of ``point.distance`` as a prepared point, or None for null.

    It depends only on the variables the argument reads, so it is kept per
    node id when the argument reads one variable. An evaluation that raises
    is not kept. ``execute`` compiles anew per call, so no memo sees two graphs.
    """
    compiled = _compile(arg)

    def location(scope):
        value = compiled(scope)
        return prepare_point(value.latitude, value.longitude) if isinstance(value, Point) else None

    names = expr_variables(arg)
    if len(names) != 1:
        return location
    (name,) = names
    memo: dict[int, tuple | None] = {}

    def per_node(scope):
        node = scope.get(name)
        if not isinstance(node, Node):
            return location(scope)
        found = memo.get(node.id, _UNSET)
        if found is _UNSET:
            found = memo[node.id] = location(scope)
        return found

    return per_node


# --- pattern matching ----------------------------------------------------------

# A stage turns the stream of nodes where the previous stage's path has got
# to into the nodes where its own path gets to, and writes each variable it
# binds into one scope dict that every stage of a query shares. Stages are
# generators pulled depth first, so whenever the last stage yields, the
# scope holds exactly one complete binding, and a stage that reads a bound
# variable reads it as soon as the stage before it yields.
Stage = Callable[[Iterable], Iterator]

# The budget of one ``execute`` call (see the module docstring).
_WORK_LIMIT = 2**22
_SECONDS_LIMIT = 5.0
_CHECK_EVERY = 4096


class _Work:
    """The candidates each stage of one query has examined, held to the budget.

    A stage adds in bulk, once per item it pulls: its pool's size for a scan,
    the adjacency's length for an expansion, 1 for a node bound earlier.
    """

    __slots__ = ("counts", "total", "check_at", "deadline")

    def __init__(self) -> None:
        self.counts: list[int] = []  # by stage, in pipeline order
        self.total = 0
        self.check_at = min(_CHECK_EVERY, _WORK_LIMIT + 1)
        self.deadline = time.monotonic() + _SECONDS_LIMIT

    def stage(self) -> int:
        self.counts.append(0)
        return len(self.counts) - 1

    def add(self, stage: int, count: int) -> None:
        self.counts[stage] += count
        total = self.total = self.total + count
        if total < self.check_at:
            return
        if total > _WORK_LIMIT:
            raise BudgetError(f"matching examined more than {_WORK_LIMIT:,} candidates")
        if time.monotonic() > self.deadline:
            raise BudgetError(f"matching ran past {_SECONDS_LIMIT:g} s")
        self.check_at = min(total - total % _CHECK_EVERY + _CHECK_EVERY, _WORK_LIMIT + 1)


def _property_test(properties) -> Callable[[dict], bool] | None:
    """An inline property map as a test of a property dict; None if empty.

    Each entry must hold ``value_equals(found, literal) is True``, checked
    as plain equality first because most candidates fail it.
    """
    if not properties:
        return None
    entries = [(key, literal.value, _kind(literal.value)) for key, literal in properties]
    if any(value_kind >= MAP for _, _, value_kind in entries):
        return lambda props: False

    def test(props):
        for key, value, value_kind in entries:
            found = props.get(key)
            if not (found == value and _kind(found) == value_kind):
                return False
        return True

    return test


def _node_test(pattern: NodePattern) -> Callable[[Node], bool] | None:
    labels, props = frozenset(pattern.labels), _property_test(pattern.properties)
    if props is None:
        return (lambda node: labels <= node.labels) if labels else None
    if not labels:
        return lambda node: props(node.properties)
    return lambda node: labels <= node.labels and props(node.properties)


_by_id = attrgetter("id")


def _either_way(graph: PropertyGraph, node_id: int):
    """Relationships at ``node_id`` in id order; a self-loop appears once."""
    outgoing, incoming = graph.outgoing(node_id), graph.incoming(node_id)
    if not incoming:
        return outgoing
    if not outgoing:
        return incoming
    return sorted([*outgoing, *(rel for rel in incoming if rel.src != rel.dst)], key=_by_id)


def _start_stage(
    graph: PropertyGraph, pattern: NodePattern, bound: set[str], scope: Binding, work: _Work
) -> tuple[Stage, list[Node] | None]:
    """The stage of a path's first node, and the nodes it can bind: None
    when the node is bound earlier, else its pool, found now."""
    test, variable, labels = _node_test(pattern), pattern.variable, pattern.labels
    stage, add = work.stage(), work.add
    if variable and variable in bound:

        def from_binding(stream):
            for _ in stream:
                add(stage, 1)
                node = scope[variable]
                if isinstance(node, Node) and (test is None or test(node)):
                    yield node

        return from_binding, None
    if variable:
        bound.add(variable)
    if not labels:
        nodes = graph.nodes()
    elif pattern.properties and _kind(pattern.properties[0][1].value) <= BOOL:
        # The index bucket holds every node of the label that the first
        # entry admits, in id order; the test below checks the rest.
        (key, literal), label = pattern.properties[0], labels[0]
        nodes = graph.nodes_with_property(label, key, literal.value)
    else:
        nodes = graph.nodes_with_label(labels[0])
        if not pattern.properties and len(set(labels)) == 1:
            test = None  # every node of the label fits
    pool = nodes if test is None else [node for node in nodes if test(node)]
    size = len(pool)

    def scan(stream):
        for _ in stream:
            add(stage, size)
            if variable:
                for node in pool:
                    scope[variable] = node
                    yield node
            else:
                yield from pool

    return scan, pool


def _edge_stage(
    graph: PropertyGraph,
    edge: EdgePattern,
    pattern: NodePattern,
    bound: set[str],
    used: set[int] | None,
    scope: Binding,
    work: _Work,
) -> Stage:
    rel_type, rel_test = edge.rel_type, _property_test(edge.properties)
    labels, node_test = frozenset(pattern.labels), _property_test(pattern.properties)
    variable, edge_variable, direction = pattern.variable, edge.variable, edge.direction
    joins = bool(variable) and variable in bound
    bound.update(name for name in (variable, edge_variable) if name)
    nodes = graph._nodes  # by id; _freeze has checked every endpoint
    stage, add = work.stage(), work.add
    if direction == "right":
        adjacent = graph.outgoing
    elif direction == "left":
        adjacent = graph.incoming
    else:
        adjacent = lambda node_id: _either_way(graph, node_id)  # noqa: E731

    def expand(stream):
        for current in stream:
            here = current.id
            if joins:
                existing = scope[variable]
                if not isinstance(existing, Node):
                    continue
                target = existing.id
            rels = adjacent(here)
            add(stage, len(rels))
            for rel in rels:
                if rel_type is not None and rel.rel_type != rel_type:
                    continue
                if used is not None and rel.id in used:
                    continue
                if rel_test is not None and not rel_test(rel.properties):
                    continue
                other = nodes[rel.dst if rel.src == here else rel.src]
                if labels and not labels <= other.labels:
                    continue
                if node_test is not None and not node_test(other.properties):
                    continue
                if joins:
                    if other.id != target:
                        continue
                elif variable:
                    scope[variable] = other
                if edge_variable:
                    scope[edge_variable] = rel
                if used is None:
                    yield other
                else:
                    used.add(rel.id)
                    yield other
                    used.discard(rel.id)

    return expand


def _matches(graph: PropertyGraph, query: Query, work: _Work) -> Iterator[Binding]:
    """The stages' shared scope, yielded once per binding that WHERE keeps.

    It is never copied, and the next binding overwrites it: a consumer reads
    what it needs before it pulls again, and never keeps the scope.
    """
    scope: Binding = {}
    stream: Iterable = (True,)  # true, as is each node a stage yields, for compress
    bound: set[str] = set()
    empty = False
    for clause in query.matches:
        # Uniqueness needs tracking only where one clause has two edges.
        used = set() if sum(len(path.edges) for path in clause.paths) > 1 else None
        for path in clause.paths:
            stage, pool = _start_stage(graph, path.nodes[0], bound, scope, work)
            empty = empty or pool is not None and not pool
            stream = stage(stream)
            for edge, pattern in zip(path.edges, path.nodes[1:]):
                stream = _edge_stage(graph, edge, pattern, bound, used, scope, work)(stream)
    if empty:  # a path start that no node fits: no binding, whatever comes before it
        stream = ()
    if query.where is None:
        return compress(repeat(scope), stream)
    where = _compile(query.where)
    return (scope for _ in stream if where(scope) is True)


def enumerate_bindings(graph: PropertyGraph, query: Query) -> list[Binding]:
    """All variable bindings satisfying the MATCH clauses and WHERE predicate."""
    return [scope.copy() for scope in _matches(graph, query, _Work())]


# --- projection -----------------------------------------------------------------


def _row_function(items) -> Callable[[dict], tuple]:
    compiled = [_compile(item.expr) for item in items]
    return lambda scope: tuple([fn(scope) for fn in compiled])


def _project(items, scopes: Iterable[Binding]) -> list[tuple]:
    """The row of each scope, projected before the next scope is pulled."""
    if len(items) == 1:  # zip over one iterator builds the 1-tuples
        return list(zip(map(_compile(items[0].expr), scopes)))
    return list(map(_row_function(items), scopes))


def _group(query: Query, scopes: Iterable[Binding]) -> list[tuple]:
    """One row per group of the non-aggregated items, in order of first appearance.

    DISTINCT groups like count() does, by every non-aggregated item. A group
    keeps the values of its first binding and one counter per count() item,
    and reads each scope in full before it pulls the next. When every item
    is count(*) or count() of a pattern variable, which no binding leaves
    null, the one row holds the number of bindings, counted as they stream.
    """
    items = query.items
    names = set().union(*pattern_variables(query))
    if all(_counts_bindings(item.expr, names) for item in items):
        total = sum(1 for _ in scopes)
        return [(total,) * len(items)]
    plain = [i for i, item in enumerate(items) if not contains_aggregate(item.expr)]
    key_values = _row_function([items[i] for i in plain]) if plain else lambda scope: ()
    # (position, argument) per count() item; count(*) has no argument.
    calls = [(i, item.expr) for i, item in enumerate(items) if i not in plain]
    counters = [(i, None if call.star else _compile(call.args[0])) for i, call in calls]
    # With no grouping item there is one group, even when nothing matches.
    groups: dict[tuple, list] = {} if plain else {(): [0] * len(items)}
    for scope in scopes:
        values = key_values(scope)
        key = tuple([group_key(value) for value in values])
        row = groups.get(key)
        if row is None:
            row = groups[key] = [0] * len(items)
            for i, value in zip(plain, values):
                row[i] = value
        for i, arg in counters:
            if arg is None or arg(scope) is not None:
                row[i] += 1
    return [tuple(row) for row in groups.values()]


def _counts_bindings(expr: Expr, names: set[str]) -> bool:
    """Whether ``expr`` is count(*) or count(v) of a pattern variable ``v``."""
    if not (isinstance(expr, FunctionCall) and expr.name == "count"):
        return False
    return expr.star or (isinstance(expr.args[0], Variable) and expr.args[0].name in names)


def _plain_read(expr: Expr, names: set[str]) -> bool:
    """Whether ``expr`` is a literal, a property access or a pattern variable:
    a read that no binding makes fail."""
    return isinstance(expr, (Literal, PropertyAccess)) or (isinstance(expr, Variable) and expr.name in names)


# --- ordering -------------------------------------------------------------------


def _column_value(entry, columns: list[str]) -> Callable[[tuple], CellValue]:
    """An ORDER BY entry over aggregated or DISTINCT rows, as ``row -> value``.

    The entry must name a projected column, by alias or by identical
    expression text.
    """
    position = {name: i for i, name in enumerate(columns)}
    if isinstance(entry.expr, Variable) and entry.expr.name in position:
        return itemgetter(position[entry.expr.name])
    if entry.source_text and entry.source_text in position:
        return itemgetter(position[entry.source_text])
    return _raiser(SemanticError("ORDER BY over aggregated or DISTINCT rows must reference a returned column"))


def _stable_sorted(pairs: list, order_by) -> list:
    """Sort keyed pairs in place, one stable pass per key from the last."""
    for position in reversed(range(len(order_by))):
        pairs.sort(key=lambda pair: pair[0][position], reverse=not order_by[position].ascending)
    return pairs


def _order_rows(query: Query, values: list[Callable], pairs: Iterable[tuple]) -> list:
    """What the rows that ORDER BY and LIMIT keep carry, in order.

    ``pairs`` yields, per row, what the row carries and what its ORDER BY
    ``values`` read. A pair is keyed before the next is pulled, since what
    ORDER BY reads may be a shared scope. Every pair is pulled, so an error
    on a row past LIMIT still fails the query. Ties keep row order.
    """
    limit, order_by = query.limit, query.order_by
    if len(values) == 1:
        (value,) = values
        keyed = ((sort_key(value(scope)), carried) for carried, scope in pairs)
    else:
        keyed = ((tuple([sort_key(value(scope)) for value in values]), carried) for carried, scope in pairs)
    if not order_by:
        kept = list(islice(keyed, limit))
    elif len({entry.ascending for entry in order_by}) == 1:
        descending = not order_by[0].ascending
        if limit is None:
            kept = sorted(keyed, key=itemgetter(0), reverse=descending)
        else:  # both equal sorted(...)[:limit], so ties keep row order
            kept = (heapq.nlargest if descending else heapq.nsmallest)(limit, keyed, key=itemgetter(0))
    else:
        # Stable passes over a buffer cut back to LIMIT rows once it holds
        # twice that many. Ties keep row order, since the kept rows come
        # before every later row, so the rows kept are those a full sort keeps.
        kept = list(keyed) if limit is None else []
        for pair in keyed:  # left to pull only under a LIMIT
            kept.append(pair)
            if len(kept) >= 2 * limit:
                kept = _stable_sorted(kept, order_by)[:limit]
        kept = _stable_sorted(kept, order_by)[:limit]
    for _ in keyed:
        pass
    return [carried for _, carried in kept]


def execute(graph: PropertyGraph, query: Query) -> ResultSet:
    """Execute a parsed query and return its result set."""
    columns = [item.column_name() for item in query.items]
    matches = _matches(graph, query, _Work())
    if query.distinct or any(contains_aggregate(item.expr) for item in query.items):
        values = [_column_value(entry, columns) for entry in query.order_by]
        return ResultSet(columns=columns, rows=_order_rows(query, values, ((r, r) for r in _group(query, matches))))
    if not query.order_by and query.limit is None:
        return ResultSet(columns=columns, rows=_project(query.items, matches))
    values = [_compile(entry.expr) for entry in query.order_by]
    names = set().union(*pattern_variables(query))
    # Rows that cannot fail, ordered by the binding alone, carry a copy of it
    # and are projected only once ORDER BY and LIMIT have picked them.
    by_binding = all(expr_variables(entry.expr) <= names for entry in query.order_by)
    if by_binding and all(_plain_read(item.expr, names) for item in query.items):
        kept = _order_rows(query, values, ((scope.copy(), scope) for scope in matches))
        return ResultSet(columns=columns, rows=_project(query.items, kept))

    # Otherwise ORDER BY reads the binding laid over the projected row, so
    # pattern variables shadow column names.
    row = _row_function(query.items)

    def projected(scope):
        cells = row(scope)
        return cells, {**dict(zip(columns, cells)), **scope}

    return ResultSet(columns=columns, rows=_order_rows(query, values, map(projected, matches)))
