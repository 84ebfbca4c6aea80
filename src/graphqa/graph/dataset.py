"""Line-delimited dataset file format, schema version 1.

Each line is a standalone JSON object so files stay human-diffable:

    {"kind": "header", "schema_version": "1"}
    {"kind": "node", "labels": ["Tower"], "properties": {"Tower": 0, ...}}
    {"kind": "rel", "src": 0, "rel_type": "HAS_SENSOR", "dst": 13, "properties": {}}

``src``/``dst`` are 0-based indices into the file's node lines, in order of
appearance. JSON keeps integer vs float property kinds distinct and floats
are written with their shortest round-trip representation, so a file parsed
and serialized again keeps its bytes.
"""

from __future__ import annotations

import json

from ..errors import DatasetFormatError, ValidationError
from .store import PropertyGraph, PropertyMap, validate_property_map

SCHEMA_VERSION = "1"


class NodeEntry:
    __slots__ = ("labels", "properties")

    def __init__(self, labels: list[str], properties: PropertyMap):
        self.labels = labels
        self.properties = properties


class RelationshipEntry:
    __slots__ = ("src_index", "rel_type", "dst_index", "properties")

    def __init__(self, src_index: int, rel_type: str, dst_index: int, properties: PropertyMap):
        self.src_index = src_index
        self.rel_type = rel_type
        self.dst_index = dst_index
        self.properties = properties


class DatasetFile:
    __slots__ = ("nodes", "relationships")

    def __init__(
        self, nodes: list[NodeEntry] | None = None, relationships: list[RelationshipEntry] | None = None
    ):
        self.nodes = [] if nodes is None else nodes
        self.relationships = [] if relationships is None else relationships


def _properties(value: object, owner: str, line: int) -> PropertyMap:
    """A line's property map, held to the store's rules with the line number."""
    if not isinstance(value, dict):
        raise DatasetFormatError(f"{owner} 'properties' must be an object", line)
    try:
        validate_property_map(value)
    except ValidationError as exc:
        raise DatasetFormatError(str(exc), line) from None
    return dict(value)


def parse_dataset(source: str) -> DatasetFile:
    """Parse a dataset document into its file-level representation."""
    dataset = DatasetFile()
    saw_header = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DatasetFormatError("each line must be an object with a 'kind' field", lineno)
        kind = obj["kind"]
        if kind == "header":
            version = obj.get("schema_version")
            if version != SCHEMA_VERSION:
                raise DatasetFormatError(f"unsupported schema_version {version!r}", lineno)
            saw_header = True
        elif kind == "node":
            labels = obj.get("labels")
            if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
                raise DatasetFormatError("node 'labels' must be a non-empty list of strings", lineno)
            props = _properties(obj.get("properties", {}), "node", lineno)
            dataset.nodes.append(NodeEntry(list(labels), props))
        elif kind == "rel":
            try:
                src = obj["src"]
                dst = obj["dst"]
                rel_type = obj["rel_type"]
            except KeyError as exc:
                raise DatasetFormatError(f"relationship line missing field {exc.args[0]!r}", lineno) from exc
            if not isinstance(src, int) or not isinstance(dst, int) or isinstance(src, bool) or isinstance(dst, bool):
                raise DatasetFormatError("relationship 'src'/'dst' must be integers", lineno)
            if not isinstance(rel_type, str) or not rel_type:
                raise DatasetFormatError("relationship 'rel_type' must be a non-empty string", lineno)
            props = _properties(obj.get("properties", {}), "relationship", lineno)
            dataset.relationships.append(RelationshipEntry(src, rel_type, dst, props))
        else:
            raise DatasetFormatError(f"unknown line kind {kind!r}", lineno)

    if not saw_header:
        raise DatasetFormatError("missing header line", 1)
    return dataset


def serialize_dataset(dataset: DatasetFile) -> str:
    """Render a dataset document; property keys are sorted for stable bytes."""
    lines = [json.dumps({"kind": "header", "schema_version": SCHEMA_VERSION}, sort_keys=True)]
    for node in dataset.nodes:
        lines.append(
            json.dumps(
                {"kind": "node", "labels": list(node.labels), "properties": node.properties},
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


def dataset_to_graph(dataset: DatasetFile) -> PropertyGraph:
    """Materialize a graph; node ids are assigned in file order starting at 0."""
    graph = PropertyGraph()
    for node in dataset.nodes:
        graph.add_node(set(node.labels), node.properties)
    node_count = len(dataset.nodes)
    for rel in dataset.relationships:
        for endpoint in (rel.src_index, rel.dst_index):
            if not 0 <= endpoint < node_count:
                raise ValidationError(
                    f"relationship endpoint index {endpoint} out of range (0..{node_count - 1})"
                )
        graph.add_relationship(rel.src_index, rel.rel_type, rel.dst_index, rel.properties)
    return graph


def load_dataset(source: str) -> PropertyGraph:
    """Parse and materialize in one step."""
    return dataset_to_graph(parse_dataset(source))


def load_dataset_file(path: str) -> PropertyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dataset(fh.read())
