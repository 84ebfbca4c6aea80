"""Line-delimited dataset file format, schema version 1.

Each line is a standalone JSON object so files stay human-diffable:

    {"kind": "header", "schema_version": "1"}
    {"kind": "node", "labels": ["Tower"], "properties": {"Tower": 0, ...}}
    {"kind": "rel", "src": 0, "rel_type": "HAS_SENSOR", "dst": 13, "properties": {}}

``src``/``dst`` are 0-based indices into the file's node lines, in order of
appearance. JSON keeps integer vs float property kinds distinct and floats
are written with their shortest round-trip representation, so a file parsed
and serialized again keeps its bytes.

Each line is decoded alone, by the scanner under ``json.loads`` called
directly; a line that is not exactly one JSON value (blank, padded, a BOM,
extra data, bad JSON) goes through ``json.loads`` for the same value or its
error. Lines are never joined and decoded together: ``{"x":1},{"y":2}``,
``{"c":[{}`` and ``{}]}`` each fail, yet joined they make three objects.

The scanner decodes every line's keys and labels afresh, so a file of many
lines alike would hold one copy of each key per line. ``parse_dataset``
keeps one string per property key, label and relationship type: it rebuilds
each decoded map, in its order and with its values, on the key objects of
the first map with the same key sequence, and gives each node a list of the
shared labels. ``dataset_to_graph`` gives nodes with one label sequence one
frozenset. Only immutable strings, key sequences and label sets are shared:
every entry, and the graph, owns its maps and lists.

A ``NodeEntry`` or ``RelationshipEntry`` checks its labels, relationship
type and property map with the store's rules when it is built and when one
is assigned, so parsed, generated and hand-built entries are all checked,
once; ``parse_dataset`` adds the line number. (A map or label list changed
in place is not checked again.) ``dataset_to_graph`` is the one way a graph
is built: it checks endpoint indexes and stores entries through the graph's
unchecked private paths, which copy each map. Nothing writes to the graph
after it returns.
"""

from __future__ import annotations

import gc
import json
from functools import wraps
from operator import attrgetter

from ..errors import DatasetFormatError, ValidationError
from .store import PropertyGraph, PropertyMap, validate_labels, validate_property_map, validate_rel_type

SCHEMA_VERSION = "1"

# The C scanner under json.loads, without its wrapper; see the module docstring.
_scan = json.JSONDecoder().scan_once


def _checked(name: str, check) -> property:
    """A property over the slot ``_<name>`` whose setter runs ``check`` first."""
    slot = "_" + name

    def set_value(entry: object, value: object) -> None:
        check(value)
        setattr(entry, slot, value)

    return property(attrgetter(slot), set_value)


class NodeEntry:
    __slots__ = ("_labels", "_properties")

    labels = _checked("labels", validate_labels)
    properties = _checked("properties", validate_property_map)

    def __init__(self, labels: list[str], properties: PropertyMap):
        # The setters' checks, in their order, without the two setter calls.
        validate_labels(labels)
        validate_property_map(properties)
        self._labels = labels
        self._properties = properties


class RelationshipEntry:
    __slots__ = ("src_index", "_rel_type", "dst_index", "_properties")

    rel_type = _checked("rel_type", validate_rel_type)
    properties = _checked("properties", validate_property_map)

    def __init__(self, src_index: int, rel_type: str, dst_index: int, properties: PropertyMap):
        validate_rel_type(rel_type)
        validate_property_map(properties)
        self.src_index = src_index
        self._rel_type = rel_type
        self.dst_index = dst_index
        self._properties = properties


class DatasetFile:
    __slots__ = ("nodes", "relationships")

    def __init__(
        self, nodes: list[NodeEntry] | None = None, relationships: list[RelationshipEntry] | None = None
    ):
        self.nodes = [] if nodes is None else nodes
        self.relationships = [] if relationships is None else relationships


def _collector_paused(function):
    """Run ``function`` with the cyclic garbage collector paused.

    Loading builds only acyclic objects, so a collection during it finds no
    garbage, yet walks the objects built so far, again and again as the
    load allocates.
    """

    @wraps(function)
    def run(*args):
        if not gc.isenabled():
            return function(*args)
        gc.disable()
        try:
            return function(*args)
        finally:
            gc.enable()

    return run


def _rekeyed(properties: dict, key_maps: dict[tuple, dict], names: dict[str, str]) -> dict:
    """A new map of ``properties``, in its order, on the key objects of the
    first map parsed with the same key sequence."""
    keys = tuple(properties)
    template = key_maps.get(keys)
    if template is None:
        template = key_maps[keys] = dict.fromkeys([names.setdefault(key, key) for key in keys])
    rebuilt = template.copy()
    rebuilt.update(properties)  # an update of an equal key keeps the template's key object
    return rebuilt


@_collector_paused
def parse_dataset(source: str) -> DatasetFile:
    """Parse a dataset document into its file-level representation."""
    dataset = DatasetFile()
    # One string per property key, label and relationship type; per distinct
    # property-key sequence, a map of those keys to None; per distinct label
    # sequence, a list of those labels. Entries get copies of the maps and
    # lists, never the ones kept here.
    names: dict[str, str] = {}
    key_maps: dict[tuple, dict] = {}
    label_lists: dict[tuple, list[str]] = {}
    saw_header = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            # Blank, or not one bare JSON value: json.loads gives it or its error.
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        if type(obj) is not dict or "kind" not in obj:
            raise DatasetFormatError("each line must be an object with a 'kind' field", lineno)
        kind = obj["kind"]
        if kind == "header":
            version = obj.get("schema_version")
            if version != SCHEMA_VERSION:
                raise DatasetFormatError(f"unsupported schema_version {version!r}", lineno)
            saw_header = True
            continue
        properties = obj.get("properties", {})
        try:
            if kind == "node":
                labels = obj.get("labels")
                if type(labels) is not list or not labels or not all(type(x) is str for x in labels):
                    raise DatasetFormatError("node 'labels' must be a non-empty list of strings", lineno)
                if type(properties) is not dict:
                    raise DatasetFormatError("node 'properties' must be an object", lineno)
                if properties:
                    properties = _rekeyed(properties, key_maps, names)
                key = tuple(labels)
                shared_labels = label_lists.get(key)
                if shared_labels is None:
                    shared_labels = label_lists[key] = [names.setdefault(label, label) for label in labels]
                dataset.nodes.append(NodeEntry(shared_labels.copy(), properties))
            elif kind == "rel":
                try:
                    src = obj["src"]
                    dst = obj["dst"]
                    rel_type = obj["rel_type"]
                except KeyError as exc:
                    raise DatasetFormatError(f"relationship line missing field {exc.args[0]!r}", lineno) from exc
                if type(src) is not int or type(dst) is not int:
                    raise DatasetFormatError("relationship 'src'/'dst' must be integers", lineno)
                if type(rel_type) is not str or not rel_type:
                    raise DatasetFormatError("relationship 'rel_type' must be a non-empty string", lineno)
                if type(properties) is not dict:
                    raise DatasetFormatError("relationship 'properties' must be an object", lineno)
                if properties:
                    properties = _rekeyed(properties, key_maps, names)
                rel_type = names.setdefault(rel_type, rel_type)
                dataset.relationships.append(RelationshipEntry(src, rel_type, dst, properties))
            else:
                raise DatasetFormatError(f"unknown line kind {kind!r}", lineno)
        except ValidationError as exc:  # an entry's own check
            raise DatasetFormatError(str(exc), lineno) from None

    if not saw_header:
        raise DatasetFormatError("missing header line", 1)
    return dataset


def serialize_dataset(dataset: DatasetFile) -> str:
    """Render a dataset document; property keys are sorted for stable bytes.

    A node's labels keep their order when they are a list, as parsed and
    generated entries hold them, and are sorted otherwise: a set's order
    depends on the string hash seed.
    """
    lines = [json.dumps({"kind": "header", "schema_version": SCHEMA_VERSION}, sort_keys=True)]
    for node in dataset.nodes:
        labels = node.labels if type(node.labels) is list else sorted(node.labels)
        lines.append(
            json.dumps(
                {"kind": "node", "labels": labels, "properties": node.properties},
                sort_keys=True,
            )
        )
    for rel in dataset.relationships:
        lines.append(
            json.dumps(
                {
                    "kind": "rel",
                    "src": rel.src_index,
                    "rel_type": rel.rel_type,
                    "dst": rel.dst_index,
                    "properties": rel.properties,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


@_collector_paused
def dataset_to_graph(dataset: DatasetFile) -> PropertyGraph:
    """Build the graph of ``dataset``; node and relationship ids follow file
    order from 0. The graph is complete when this returns."""
    graph = PropertyGraph()
    store_node = graph._store_node
    label_sets: dict[tuple, frozenset[str]] = {}  # one frozenset per distinct label sequence
    for node in dataset.nodes:
        labels = node.labels
        key = tuple(labels)
        label_set = label_sets.get(key)
        if label_set is None:
            label_set = label_sets[key] = frozenset(labels)
        store_node(label_set, node.properties)
    node_count = len(dataset.nodes)
    store_relationship = graph._store_relationship
    for rel in dataset.relationships:
        src = rel.src_index
        dst = rel.dst_index
        for endpoint in (src, dst):
            if type(endpoint) is not int or not 0 <= endpoint < node_count:
                raise ValidationError(
                    f"relationship endpoint index {endpoint!r} is not an integer in 0..{node_count - 1}"
                )
        store_relationship(src, rel.rel_type, dst, rel.properties)
    return graph


def load_dataset(source: str) -> PropertyGraph:
    """Parse and materialize in one step."""
    return dataset_to_graph(parse_dataset(source))


def load_dataset_file(path: str) -> PropertyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dataset(fh.read())
