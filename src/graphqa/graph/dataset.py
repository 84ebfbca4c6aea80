"""Line-delimited dataset file format, schema version 1.

Each line is a standalone JSON object so files stay human-diffable:

    {"kind": "header", "schema_version": "1"}
    {"kind": "node", "labels": ["Tower"], "properties": {"Tower": 0, ...}}
    {"kind": "rel", "src": 0, "rel_type": "HAS_SENSOR", "dst": 13, "properties": {}}

``src``/``dst`` are 0-based indices into the file's node lines, in order of
appearance. JSON keeps integer vs float property kinds distinct and floats
are written with their shortest round-trip representation. Labels and
property keys are written sorted, so a file whose labels are in sorted order
keeps its bytes when it is loaded and serialized again.

The ``PropertyGraph`` is the only in-memory form of a dataset, and every
graph is built by one builder, ``_build``. Its feed (a parse here, or the
generator in ``fixture.py``) calls two sinks in file order,
``node(labels, properties)`` and ``relationship(src, rel_type, dst,
properties)``. Each sink runs the store's checks: ``validate_labels`` once
per distinct label sequence, ``validate_property_map`` and
``validate_rel_type``. It then stores the entry, and the graph adopts the
map it is given. The build ends with ``PropertyGraph._freeze``, which checks
every endpoint index. Nothing writes to the graph after that.

A parse reads lines through ``datafiles.json_lines``, the reader of every
JSON-lines format in the package: each line alone, never joined with the
next, and a blank line skipped. ``load_dataset`` and ``load_dataset_file``
split the text exactly as ``str.splitlines`` does, a piece of the text (or
file) at a time, so a load never holds a list of every line beside the
graph. The parse checks each line's shape and turns a sink's
``ValidationError`` into a ``DatasetFormatError`` naming the line.
Endpoints are checked after the last line.

A build keeps one string per string value: ``validate_property_map``
replaces each value of exact type ``str`` by the first equal one. Only exact
strings are shared, since ``True``, ``1`` and ``1.0`` are equal and hash
alike. The parse is the only source of fresh property keys, labels and
relationship types (the generator's are constants), so it keeps one string
per each of them: it rebuilds each decoded map, in its order and with its
values, on the key objects of the first map with the same key sequence, and
gives each node the label tuple kept for its label sequence. The graph gives
nodes with one label sequence one frozenset. Only immutable strings, key
sequences and label sets are shared: each node and relationship owns its map.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from ..datafiles import json_lines, sorted_json
from ..errors import DatasetFormatError, ValidationError
from .store import PropertyGraph, validate_labels, validate_property_map, validate_rel_type

SCHEMA_VERSION = "1"


def _sinks(graph: PropertyGraph) -> tuple[Callable, Callable]:
    """The builder's ``node`` and ``relationship`` sinks into ``graph``: each
    checks an entry with the store's rules, then stores it."""
    store_node, store_relationship = graph._store_node, graph._store_relationship
    strings: dict[str, str] = {}  # one string per string value
    checked_labels: set[tuple] = set()

    def node(labels, properties):
        key = tuple(labels)  # no copy of a tuple, which the parse and the generator pass
        if key not in checked_labels:
            validate_labels(labels)
            checked_labels.add(key)
        validate_property_map(properties, strings)
        store_node(labels, properties)

    def relationship(src, rel_type, dst, properties):
        validate_rel_type(rel_type)
        validate_property_map(properties, strings)
        store_relationship(src, rel_type, dst, properties)

    return node, relationship


def _build(feed: Callable[[Callable, Callable], object]) -> PropertyGraph:
    """The graph of the entries ``feed(node, relationship)`` passes to the
    sinks, with ids in call order from 0.

    The sinks and their tables are dropped before ``_freeze`` builds the
    adjacency, the peak of a load. The build runs with the cyclic garbage
    collector paused. It builds only acyclic objects, so a collection
    during it finds no garbage, yet walks the objects built so far, again
    and again as the build allocates.
    """
    graph = PropertyGraph()
    collecting = gc.isenabled()
    gc.disable()
    try:
        feed(*_sinks(graph))
        graph._freeze()
    finally:
        if collecting:
            gc.enable()
    return graph


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


def _parse(lines: Iterable[str], node: Callable, relationship: Callable) -> None:
    """Parse a document's lines into the builder's sinks, in file order.

    Each call gets a fresh map. A ``DatasetFormatError`` names the line that
    fails, whether its shape or a sink's check rejects it.
    """
    # One string per property key, label and relationship type; per
    # distinct property-key sequence, a map of those keys to None; per
    # distinct label sequence, a tuple of those labels, which every node of
    # that sequence gets. Nodes get copies of the maps, never the ones kept here.
    names: dict[str, str] = {}
    key_maps: dict[tuple, dict] = {}
    label_tuples: dict[tuple, tuple] = {}
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
                try:  # a kept label sequence has passed every label check, or the parse has ended
                    shared_labels = label_tuples.get(tuple(labels)) if type(labels) is list else None
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
                    shared_labels = label_tuples[tuple(labels)] = tuple([names.setdefault(x, x) for x in labels])
                node(shared_labels, properties)
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
                relationship(src, names.setdefault(rel_type, rel_type), dst, properties)
            else:
                raise DatasetFormatError(f"unknown line kind {kind!r}", lineno)
        except ValidationError as exc:  # a sink's check
            raise DatasetFormatError(str(exc), lineno) from None

    if not saw_header:
        raise DatasetFormatError("missing header line", 1)


def serialize_dataset(graph: PropertyGraph) -> str:
    """Render ``graph`` as a dataset document: nodes, then relationships, in
    id order, with labels and property keys sorted, so the bytes depend on
    neither the order labels were given in nor the string hash seed. Every
    line is encoded by one encoder."""
    lines = [sorted_json({"kind": "header", "schema_version": SCHEMA_VERSION})]
    for node in graph.nodes():
        lines.append(sorted_json({"kind": "node", "labels": sorted(node.labels), "properties": node.properties}))
    for rel in graph.relationships():
        lines.append(
            sorted_json(
                {"kind": "rel", "src": rel.src, "rel_type": rel.rel_type, "dst": rel.dst, "properties": rel.properties}
            )
        )
    return "\n".join(lines) + "\n"


def _load(chunks: Iterable[str]) -> PropertyGraph:
    return _build(partial(_parse, _lines(chunks)))


def load_dataset(source: str) -> PropertyGraph:
    """The graph of a dataset document, each entry stored as its line is parsed."""
    return _load(_pieces(source))


def load_dataset_file(path: str) -> PropertyGraph:
    """``load_dataset`` of a UTF-8 file read in text mode, a piece at a time.

    Bytes that are not UTF-8 raise ``UnicodeDecodeError`` when the read
    reaches them, so an error on an earlier line is raised first, and the
    error's position counts from the start of the piece being decoded.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _load(iter(partial(fh.read, _CHUNK), ""))


def parse_dataset(source: str) -> PropertyGraph:
    """``load_dataset``, under the name that ``perfbench/workloads.py`` and
    ``perfbench/sweep.py`` still call; it exists only for them."""
    return load_dataset(source)


def dataset_to_graph(graph: PropertyGraph) -> PropertyGraph:
    """``graph`` itself, which a load or the generator has built; this name
    exists only for ``perfbench/workloads.py`` and ``perfbench/sweep.py``."""
    if not isinstance(graph, PropertyGraph):
        raise TypeError(f"dataset_to_graph takes a PropertyGraph, got {type(graph).__name__}")
    return graph
