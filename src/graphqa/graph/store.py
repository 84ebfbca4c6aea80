"""In-memory property graph.

Nodes carry a non-empty set of labels and a property map; relationships are
directed, typed edges between existing nodes. Property values are restricted
to 64-bit integers, finite floats, text, and booleans, and the value kind is
preserved exactly from load through query execution to serialization.

A graph is built once, by the one builder in ``dataset.py`` (for a load or
the generator), and nothing writes to it afterwards, so concurrent readers
are safe. Ids follow file order from 0, so nodes and relationships are kept
in lists indexed by id, and only an ``int`` in ``0..n-1`` names one:
``node(True)``, ``node(1.0)`` and ``node(-1)`` fail as any missing id does.
Beside them sit the nodes of each label, in id order, and each node's
outgoing and incoming relationships, frozen into tuples in id order when the
build ends, so no read sorts. A third index, the equality index of
``nodes_with_property``, is built lazily: the first read of a (label, key)
pair buckets that label's nodes by the key's value, and the buckets are
kept.

Each node and relationship owns its property map, but what is immutable is
shared as loaded: a node's label set is one frozenset per distinct label
sequence, and a property key, label, relationship type or string value is
one string however many maps, sets or relationships hold it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Collection, Sequence
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from ..errors import ValidationError

PropertyValue = int | float | str | bool
PropertyMap = dict[str, PropertyValue]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def validate_property_map(properties: PropertyMap, strings: dict[str, str] | None = None) -> None:
    """Reject a map that is not a dict, non-string keys, out-of-range
    integers, and non-finite floats.

    A parse passes ``strings``, its table of string values: each value of
    exact type ``str`` is then replaced, in place, by the equal string the
    table held first, so equal values are one object. Only exact strings go
    in: a table of every value would merge ``True``, ``1`` and ``1.0``.
    """
    if not isinstance(properties, dict):
        raise ValidationError(f"property map must be a dict, got {type(properties).__name__}")
    for key, value in properties.items():
        # Text, booleans, 64-bit integers and finite floats under a plain key
        # need no more; the rest, and subclasses, take the full checks below.
        kind = type(value)
        if type(key) is str and key and (
            kind is str
            or kind is bool
            or (kind is int and _INT64_MIN <= value <= _INT64_MAX)
            or (kind is float and math.isfinite(value))
        ):
            if kind is str and strings is not None:
                properties[key] = strings.setdefault(value, value)  # a key's value changes; no key is added
            continue
        if not isinstance(key, str) or not key:
            raise ValidationError(f"property key must be a non-empty string, got {key!r}")
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            if not (_INT64_MIN <= value <= _INT64_MAX):
                raise ValidationError(f"integer property {key}={value} outside 64-bit range")
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ValidationError(f"float property {key}={value!r} must be finite")
        elif not isinstance(value, str):
            raise ValidationError(f"unsupported property value for {key}: {type(value).__name__}")


def validate_labels(labels: Collection[str]) -> None:
    """Reject a string in place of a label collection, an empty collection,
    and any label that is not non-empty text."""
    if isinstance(labels, str):
        raise ValidationError(f"labels must be a collection of strings, got the string {labels!r}")
    if not labels:
        raise ValidationError("node must have at least one label")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValidationError(f"label must be a non-empty string, got {label!r}")


def validate_rel_type(rel_type: str) -> None:
    if not isinstance(rel_type, str) or not rel_type:
        raise ValidationError("relationship type must be a non-empty string")


class Node:
    """Graph node with a unique integer id."""

    __slots__ = ("id", "labels", "properties")

    def __init__(self, node_id: int, labels: frozenset[str], properties: PropertyMap):
        self.id = node_id
        self.labels = labels
        self.properties = properties

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))

    def __repr__(self) -> str:
        return f"Node(id={self.id}, labels={sorted(self.labels)}, properties={self.properties})"


class Relationship:
    """Directed, typed edge between two node ids."""

    __slots__ = ("id", "src", "dst", "rel_type", "properties")

    def __init__(self, rel_id: int, src: int, dst: int, rel_type: str, properties: PropertyMap):
        self.id = rel_id
        self.src = src
        self.dst = dst
        self.rel_type = rel_type
        self.properties = properties

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))

    def __repr__(self) -> str:
        return (
            f"Relationship(id={self.id}, src={self.src}, dst={self.dst}, "
            f"rel_type={self.rel_type!r}, properties={self.properties})"
        )


class GraphStats(NamedTuple):
    node_count: int
    relationship_count: int
    property_key_count: int
    label_counts: dict[str, int]


class PropertyGraph:
    """Embedded property graph with integer node/relationship handles.

    The builder in ``dataset.py`` checks each entry, stores it through
    ``_store_node`` or ``_store_relationship``, which check nothing and
    adopt the map they are given, then calls ``_freeze``.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []  # by id
        self._rels: list[Relationship] = []  # by id
        self._nodes_by_label: defaultdict[str, list[Node]] = defaultdict(list)
        self._outgoing: list[tuple[Relationship, ...]] = []  # by node id; see _freeze
        self._incoming: list[tuple[Relationship, ...]] = []
        self._label_sets: dict[tuple, frozenset[str]] = {}  # see _store_node
        self._schema_memo: str | None = None  # see schema_description
        self._property_index: dict[tuple[str, str], dict] = {}  # see nodes_with_property

    def _store_node(self, labels: Collection[str], properties: PropertyMap) -> None:
        """Append a node; nodes with one label sequence share one frozenset."""
        key = tuple(labels)
        label_set = self._label_sets.get(key)
        if label_set is None:
            label_set = self._label_sets[key] = frozenset(labels)
        node = Node(len(self._nodes), label_set, properties)
        self._nodes.append(node)
        for label in label_set:
            self._nodes_by_label[label].append(node)

    def _store_relationship(self, src: int, rel_type: str, dst: int, properties: PropertyMap) -> None:
        """Append a relationship; ``_freeze`` checks its endpoints."""
        self._rels.append(Relationship(len(self._rels), src, dst, rel_type, properties))

    def _freeze(self) -> None:
        """End the build: check that every relationship's endpoints are
        stored node ids, in id order, then give each node its outgoing and
        incoming relationships as tuples in id order."""
        node_count = len(self._nodes)
        for rel in self._rels:
            for endpoint in (rel.src, rel.dst):
                if type(endpoint) is not int or not 0 <= endpoint < node_count:
                    raise ValidationError(
                        f"relationship endpoint index {endpoint!r} is not an integer in 0..{node_count - 1}"
                    )
        self._outgoing = _adjacency(self._rels, "src", node_count)
        self._incoming = _adjacency(self._rels, "dst", node_count)

    def node(self, node_id: int) -> Node:
        if type(node_id) is int and node_id >= 0:  # a bool or -1 would index the list
            try:
                return self._nodes[node_id]
            except IndexError:
                pass
        raise ValidationError(f"no node with id {node_id}")

    def nodes(self) -> list[Node]:
        return list(self._nodes)

    def relationships(self) -> list[Relationship]:
        return list(self._rels)

    def nodes_with_label(self, label: str) -> list[Node]:
        return list(self._nodes_by_label.get(label, ()))

    def nodes_with_property(self, label: str, key: str, value: PropertyValue) -> Sequence[Node]:
        """Nodes of ``label`` whose ``key`` equals ``value``, in id order. Read-only.

        Equal means equal and of the same kind: a boolean matches only a
        boolean, while ``1`` and ``1.0`` are one number. The buckets of a
        (label, key) pair are built on its first read and kept.
        """
        buckets = self._property_index.get((label, key))
        if buckets is None:
            buckets = {}
            for node in self._nodes_by_label.get(label, ()):
                found = node.properties.get(key)
                if found is not None:
                    buckets.setdefault((isinstance(found, bool), found), []).append(node)
            self._property_index[label, key] = buckets  # published whole, for concurrent readers
        return buckets.get((isinstance(value, bool), value), ())

    def outgoing(self, node_id: int) -> Sequence[Relationship]:
        """Relationships whose source is ``node_id``, in id order; none if no node has that id."""
        return self._outgoing[node_id] if type(node_id) is int and 0 <= node_id < len(self._outgoing) else ()

    def incoming(self, node_id: int) -> Sequence[Relationship]:
        """Relationships whose target is ``node_id``, in id order; none if no node has that id."""
        return self._incoming[node_id] if type(node_id) is int and 0 <= node_id < len(self._incoming) else ()

    def stats(self) -> GraphStats:
        keys: set[str] = set()
        label_counts: dict[str, int] = {}
        for node in self._nodes:
            keys.update(node.properties)
            for label in node.labels:
                label_counts[label] = label_counts.get(label, 0) + 1
        for rel in self._rels:
            keys.update(rel.properties)
        return GraphStats(
            node_count=len(self._nodes),
            relationship_count=len(self._rels),
            property_key_count=len(keys),
            label_counts=dict(sorted(label_counts.items())),
        )


def _adjacency(rels: list[Relationship], endpoint: str, node_count: int) -> list[tuple[Relationship, ...]]:
    """Per node id, the relationships whose ``endpoint`` it is, in id order.

    A stable sort by endpoint keeps id order within a node; each node's run
    becomes one tuple, and a node with none shares the empty tuple.
    """
    by_node: list[tuple[Relationship, ...]] = [()] * node_count
    key = attrgetter(endpoint)
    for node_id, run in groupby(sorted(rels, key=key), key):
        by_node[node_id] = tuple(run)
    return by_node


def schema_description(graph: PropertyGraph) -> str:
    """Render a stable, human-readable schema summary for prompt building.

    Output is fully ordered (alphabetical) so identical graphs always produce
    identical text; a graph with one more label has exactly one more line.
    The text is rendered on the first call and kept.
    """
    if graph._schema_memo is None:
        graph._schema_memo = _render_schema(graph)
    return graph._schema_memo


def _render_schema(graph: PropertyGraph) -> str:
    if not graph.nodes():
        return "The graph is empty: no labels and no relationship types."

    keys_by_label: dict[str, set[str]] = {}
    for node in graph.nodes():
        for label in node.labels:
            keys_by_label.setdefault(label, set()).update(node.properties)

    lines = ["Node labels and their property keys:"]
    for label in sorted(keys_by_label):
        keys = ", ".join(sorted(keys_by_label[label])) or "(no properties)"
        lines.append(f"  {label}: {keys}")

    triples: set[tuple[str, str, str]] = set()
    for rel in graph.relationships():
        src_labels = sorted(graph.node(rel.src).labels) or [""]
        dst_labels = sorted(graph.node(rel.dst).labels) or [""]
        for src_label in src_labels:
            for dst_label in dst_labels:
                triples.add((src_label, rel.rel_type, dst_label))
    if triples:
        lines.append("Relationship types:")
        for src_label, rel_type, dst_label in sorted(triples):
            lines.append(f"  (:{src_label})-[:{rel_type}]->(:{dst_label})")
    return "\n".join(lines)
