"""Result sets and driver-style record serialization.

``serialize_records`` reproduces the flat text format of Neo4j Python driver
output: ``[<Record col1=v1 col2=v2>, ...]`` with an empty result rendered as
``[]``. Floats use their shortest round-trip representation, text values are
rendered with Python ``repr`` (single-quoted in the common case), and nulls
render as ``None``. This exact format is a contract consumed by the pipeline
and the evaluation harness, so change it only with care.

A cell whose type is exactly ``str``, ``int`` or ``float`` is rendered by
``repr``; every other cell (``None``, a boolean, a subclass of one of those
three, a node, a relationship or a point) falls back to ``render_value``,
which gives it the same text. A result renders column by column, each
column's ``name=`` prefix built once, and a column whose every cell is of
those three types maps ``repr`` over its cells with no lookup per cell.

The text a node or relationship shares with others is built once per
``serialize_records`` call: each label set's ``frozenset({...})``, each
property key's ``'key': `` prefix and each relationship type's ``repr``. The
memos holding them are made by the call and dropped when it returns; nothing
is cached at module level, so calls may run concurrently.

``Point`` is a value like the AST nodes (see ``datafiles.value_type``): it
equals only a point with equal coordinates, never a plain pair.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

from ..datafiles import value_type
from ..errors import RuntimeQueryError
from ..graph.store import Node, Relationship


@value_type
class Point(NamedTuple):
    """Geographic point produced by the ``point()`` query function."""

    latitude: float
    longitude: float


CellValue = int | float | str | bool | None | Node | Relationship | Point


class ResultSet(NamedTuple):
    """Executed query output: ordered columns and per-row cell tuples."""

    columns: list[str]
    rows: Sequence[tuple[CellValue, ...]] = ()


# Cells of exactly these types render as their ``repr``; every other cell,
# a subclass of one of them included, goes through ``render_value``.
_REPR = {str: repr, int: repr, float: repr}


def render_value(value: CellValue) -> str:
    """Render one cell the way it appears inside a serialized record."""
    if type(value) in _REPR:
        return repr(value)
    if value is None:
        return "None"
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, float, str)):
        return repr(value)
    if isinstance(value, Node):
        return _renderers()[Node](value)
    if isinstance(value, Relationship):
        return _renderers()[Relationship](value)
    if isinstance(value, Point):
        return f"point({{latitude: {value.latitude!r}, longitude: {value.longitude!r}}})"
    raise RuntimeQueryError(f"cannot render value of type {type(value).__name__}")


class _Memo(dict):
    """Text pieces keyed by what they render; a missing one is made by ``make`` and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], str]):
        self.make = make  # the dict itself starts empty

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.make(key)
        return text


def _labels_text(labels: frozenset[str]) -> str:
    return "frozenset({" + ", ".join(map(repr, sorted(labels))) + "})"


def _key_text(key: str) -> str:
    return f"{key!r}: "


def _renderers() -> dict[type, Callable[[Any], str]]:
    """Cell renderers by exact type, sharing fresh memos of label-set,
    property-key and relationship-type text for as long as the caller holds
    them."""
    labels, keys, types = _Memo(_labels_text), _Memo(_key_text), _Memo(repr)
    get = _REPR.get

    def properties(values: dict) -> str:
        return "{" + ", ".join([keys[key] + get(type(val), render_value)(val) for key, val in values.items()]) + "}"

    def node(value: Node) -> str:
        return f"<Node id={value.id} labels={labels[value.labels]} properties={properties(value.properties)}>"

    def relationship(value: Relationship) -> str:
        return (
            f"<Relationship id={value.id} type={types[value.rel_type]} "
            f"start={value.src} end={value.dst} properties={properties(value.properties)}>"
        )

    return {**_REPR, Node: node, Relationship: relationship}


def serialize_records(result: ResultSet) -> str:
    """Serialize a result set to the exact record-list text format.

    Each column renders as one list of ``name=value`` fields; a record joins
    its row's fields with spaces.
    """
    if not result.rows:
        return "[]"
    renderers = None  # made by the first column that needs more than repr
    columns = []
    for name, cells in zip(result.columns, zip(*result.rows)):
        if _REPR.keys() >= set(map(type, cells)):
            texts = map(repr, cells)
        else:
            if renderers is None:
                renderers = _renderers()
            get = renderers.get
            texts = [get(type(cell), render_value)(cell) for cell in cells]
        columns.append(list(map(f"{name}=".__add__, texts)))
    return "[<Record " + ">, <Record ".join(map(" ".join, zip(*columns))) + ">]"


def canonicalize_query(query_text: str) -> str:
    """Normalize a query for exact-match comparison.

    Collapses whitespace runs to single spaces, trims the ends, and strips
    trailing semicolons. Case is preserved everywhere because identifiers,
    labels, and property keys are case-sensitive. Idempotent.
    """
    collapsed = " ".join(query_text.split())
    while collapsed.endswith(";"):
        collapsed = collapsed[:-1].rstrip()
    return collapsed
