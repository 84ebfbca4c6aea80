"""Line-delimited dataset file format, schema version 1.

Each line is a standalone JSON object so files stay human-diffable:

    {"kind": "header", "schema_version": "1"}
    {"kind": "node", "labels": ["Tower"], "properties": {"Tower": 0, ...}}
    {"kind": "rel", "src": 0, "rel_type": "HAS_SENSOR", "dst": 13, "properties": {}}

``src``/``dst`` are 0-based indices into the file's node lines, in order of
appearance. JSON keeps integer vs float property kinds distinct and floats
are written with their shortest round-trip representation, so a file parsed
and serialized again keeps its bytes.

Lines are decoded by ``datafiles.json_lines``, the reader of every
JSON-lines format in the package: each line alone, never joined with the
next, and a blank line skipped.

The scanner decodes every line's keys, labels and values afresh, so a file
of many lines alike would hold one copy of each per line. A parse keeps, for
as long as it runs, one string per property key, label, relationship type
and string value: it rebuilds each decoded map, in its order and with its
values, on the key objects of the first map with the same key sequence,
replaces each string value by the first equal one in the pass that checks
the map, and gives each node a list of the shared labels. Only values of
exact type ``str`` are shared, since ``True``, ``1`` and ``1.0`` are equal
and hash alike. The graph gives nodes with one label sequence one frozenset.
Only immutable strings, key sequences and label sets are shared: every
entry, and the graph, owns its maps and lists.

One parser serves two consumers. It splits lines exactly as
``str.splitlines`` does, a piece of the text (or file) at a time.
``parse_dataset`` makes entries; ``load_dataset`` and ``load_dataset_file``
store each entry in the graph as soon as its line is parsed, and the graph
adopts its fresh map, so a load never holds the parsed entries or a list of
every line beside the graph. Endpoints are checked after the last line, so
a load raises what ``dataset_to_graph(parse_dataset(text))`` raises.

A ``NodeEntry`` or ``RelationshipEntry`` checks its labels, relationship
type and property map with the store's rules when it is built and when one
is assigned, so generated and hand-built entries are checked once; a parse
runs the same checks on each line and adds the line number. (A map or label
list changed in place is not checked again.) ``dataset_to_graph`` stores a
copy of each entry's map through the graph's unchecked private paths, and
the graph checks endpoint indexes when the build ends. Nothing writes to
the graph after that.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable, Iterable, Iterator
from functools import partial, wraps
from operator import attrgetter

from ..datafiles import json_lines, sorted_json
from ..errors import DatasetFormatError, ValidationError
from .store import PropertyGraph, PropertyMap, validate_labels, validate_property_map, validate_rel_type

SCHEMA_VERSION = "1"


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
    def run(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
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


# Characters of a document cut per piece when it is split into lines.
_CHUNK = 1 << 16


def _pieces(source: str) -> Iterator[str]:
    return (source[i : i + _CHUNK] for i in range(0, len(source), _CHUNK))


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines ``str.splitlines`` cuts from the text the chunks make.

    Each chunk is split up to just after its last ``\n``, and the rest goes
    before the next chunk. Only ``\r\n`` is a separator of two characters,
    and it ends with ``\n``, so no cut splits a separator.
    """
    rest = ""
    for chunk in chunks:
        text = rest + chunk
        cut = text.rfind("\n") + 1
        yield from text[:cut].splitlines()
        rest = text[cut:]
    yield from rest.splitlines()


def _invalid_json(lineno: int, exc: json.JSONDecodeError) -> DatasetFormatError:
    return DatasetFormatError(f"invalid JSON: {exc.msg}", lineno)


def _parse(lines: Iterable[str], add_node: Callable, add_relationship: Callable) -> None:
    """Parse a document's lines, passing each entry's fields, checked as an
    entry checks them, to ``add_node(labels, properties)`` or
    ``add_relationship(src, rel_type, dst, properties)`` in file order.

    Each call gets a fresh map. ``labels`` is the list kept for its label
    sequence, which ``add_node`` must not change. A ``DatasetFormatError``
    names the line that fails.
    """
    # One string per property key, label, relationship type and string
    # value; per distinct property-key sequence, a map of those keys to
    # None; per distinct label sequence, a list of those labels. Entries get
    # copies of the maps and lists, never the ones kept here.
    names: dict[str, str] = {}
    strings: dict[str, str] = {}
    key_maps: dict[tuple, dict] = {}
    label_lists: dict[tuple, list[str]] = {}
    saw_header = False
    for lineno, obj in json_lines(lines, _invalid_json):
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
                try:  # a label sequence kept below has passed every label check
                    shared_labels = label_lists.get(tuple(labels)) if type(labels) is list else None
                except TypeError:  # an unhashable label, which the checks reject
                    shared_labels = None
                if shared_labels is None and (
                    type(labels) is not list or not labels or not all(type(x) is str for x in labels)
                ):
                    raise DatasetFormatError("node 'labels' must be a non-empty list of strings", lineno)
                if type(properties) is not dict:
                    raise DatasetFormatError("node 'properties' must be an object", lineno)
                if properties:
                    properties = _rekeyed(properties, key_maps, names)
                if shared_labels is None:
                    validate_labels(labels)
                    shared_labels = label_lists[tuple(labels)] = [names.setdefault(label, label) for label in labels]
                validate_property_map(properties, strings)
                add_node(shared_labels, properties)
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
                validate_property_map(properties, strings)
                add_relationship(src, names.setdefault(rel_type, rel_type), dst, properties)
            else:
                raise DatasetFormatError(f"unknown line kind {kind!r}", lineno)
        except ValidationError as exc:  # an entry's own check
            raise DatasetFormatError(str(exc), lineno) from None

    if not saw_header:
        raise DatasetFormatError("missing header line", 1)


@_collector_paused
def parse_dataset(source: str) -> DatasetFile:
    """Parse a dataset document into its file-level representation."""
    dataset = DatasetFile()
    new_node, add_node = NodeEntry.__new__, dataset.nodes.append
    new_rel, add_rel = RelationshipEntry.__new__, dataset.relationships.append

    # The parse has run the entries' checks, so the entries are built without them.
    def node(labels, properties):
        entry = new_node(NodeEntry)
        entry._labels = labels.copy()
        entry._properties = properties
        add_node(entry)

    def relationship(src, rel_type, dst, properties):
        entry = new_rel(RelationshipEntry)
        entry.src_index = src
        entry._rel_type = rel_type
        entry.dst_index = dst
        entry._properties = properties
        add_rel(entry)

    _parse(_lines(_pieces(source)), node, relationship)
    return dataset


def serialize_dataset(dataset: DatasetFile) -> str:
    """Render a dataset document; property keys are sorted for stable bytes.

    A node's labels keep their order when they are a list, as parsed and
    generated entries hold them, and are sorted otherwise: a set's order
    depends on the string hash seed. Every line is encoded by one encoder.
    """
    lines = [sorted_json({"kind": "header", "schema_version": SCHEMA_VERSION})]
    for node in dataset.nodes:
        labels = node.labels if type(node.labels) is list else sorted(node.labels)
        lines.append(sorted_json({"kind": "node", "labels": labels, "properties": node.properties}))
    for rel in dataset.relationships:
        lines.append(
            sorted_json(
                {
                    "kind": "rel",
                    "src": rel.src_index,
                    "rel_type": rel.rel_type,
                    "dst": rel.dst_index,
                    "properties": rel.properties,
                }
            )
        )
    return "\n".join(lines) + "\n"


@_collector_paused
def dataset_to_graph(dataset: DatasetFile) -> PropertyGraph:
    """Build the graph of ``dataset``; node and relationship ids follow file
    order from 0. The graph stores a copy of each map and is complete when
    this returns."""
    graph = PropertyGraph()
    store_node = graph._store_node
    for node in dataset.nodes:
        store_node(node.labels, dict(node.properties))
    store_relationship = graph._store_relationship
    for rel in dataset.relationships:
        store_relationship(rel.src_index, rel.rel_type, rel.dst_index, dict(rel.properties))
    graph._freeze()
    return graph


@_collector_paused
def _load(chunks: Iterable[str]) -> PropertyGraph:
    """The graph of the document the chunks make, stored entry by entry as
    each line is parsed; the graph adopts each entry's fresh map."""
    graph = PropertyGraph()
    _parse(_lines(chunks), graph._store_node, graph._store_relationship)
    graph._freeze()  # endpoints are checked once every line is parsed, as dataset_to_graph checks them
    return graph


def load_dataset(source: str) -> PropertyGraph:
    """The graph ``dataset_to_graph(parse_dataset(source))`` builds, or its
    error, without holding the parsed entries beside the graph."""
    return _load(_pieces(source))


def load_dataset_file(path: str) -> PropertyGraph:
    """``load_dataset`` of a UTF-8 file read in text mode, a piece at a time.

    Bytes that are not UTF-8 raise ``UnicodeDecodeError`` when the read
    reaches them, so an error on an earlier line is raised first, and the
    error's position counts from the start of the piece being decoded.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _load(iter(partial(fh.read, _CHUNK), ""))
