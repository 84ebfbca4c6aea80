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
"""

from __future__ import annotations

from ..errors import RuntimeQueryError
from ..graph.store import Node, Relationship
from .ast import Frozen, _set


class Point(Frozen):
    """Geographic point produced by the ``point()`` query function."""

    __slots__ = ("latitude", "longitude")

    def __init__(self, latitude: float, longitude: float):
        _set(self, "latitude", latitude)
        _set(self, "longitude", longitude)


CellValue = int | float | str | bool | None | Node | Relationship | Point


class ResultSet:
    """Executed query output: ordered columns and per-row cell tuples."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple[CellValue, ...]] | None = None):
        self.columns = columns
        self.rows = [] if rows is None else rows


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
        labels = "frozenset({" + ", ".join(repr(x) for x in sorted(value.labels)) + "})"
        return f"<Node id={value.id} labels={labels} properties={_render_map(value.properties)}>"
    if isinstance(value, Relationship):
        return (
            f"<Relationship id={value.id} type={value.rel_type!r} "
            f"start={value.src} end={value.dst} properties={_render_map(value.properties)}>"
        )
    if isinstance(value, Point):
        return f"point({{latitude: {value.latitude!r}, longitude: {value.longitude!r}}})"
    raise RuntimeQueryError(f"cannot render value of type {type(value).__name__}")


def _render_map(properties: dict) -> str:
    get = _REPR.get
    return "{" + ", ".join(f"{key!r}: {get(type(val), render_value)(val)}" for key, val in properties.items()) + "}"


def serialize_records(result: ResultSet) -> str:
    """Serialize a result set to the exact record-list text format.

    Each column renders as one list of ``name=value`` fields; a record joins
    its row's fields with spaces.
    """
    if not result.rows:
        return "[]"
    get = _REPR.get
    columns = []
    for name, cells in zip(result.columns, zip(*result.rows)):
        if _REPR.keys() >= set(map(type, cells)):
            texts = map(repr, cells)
        else:
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
