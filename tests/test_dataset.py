import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import graphqa
from graphqa.errors import DatasetFormatError, ValidationError
from graphqa.graph import (
    GeneratorConfig,
    dataset_to_graph,
    generate_msa_fixture,
    load_dataset,
    load_dataset_file,
    serialize_dataset,
)
from graphqa.graph.dataset import _build, parse_dataset

HEADER = '{"kind": "header", "schema_version": "1"}'


def test_round_trip_is_lossless(dataset_text):
    graph = load_dataset(dataset_text)
    again = serialize_dataset(graph)
    assert again == dataset_text
    graph2 = load_dataset(again)
    assert [(n.id, sorted(n.labels), n.properties) for n in graph.nodes()] == [
        (n.id, sorted(n.labels), n.properties) for n in graph2.nodes()
    ]
    assert [(r.src, r.rel_type, r.dst, r.properties) for r in graph.relationships()] == [
        (r.src, r.rel_type, r.dst, r.properties) for r in graph2.relationships()
    ]


KINDS_DOC = HEADER + "\n" + '{"kind": "node", "labels": ["A"], "properties": {"i": 4, "f": 4.0, "s": "4", "b": true}}'


def test_value_kinds_survive_round_trip():
    text = KINDS_DOC
    graph = load_dataset(text)
    props = graph.node(0).properties
    assert props["i"] == 4 and isinstance(props["i"], int) and not isinstance(props["i"], bool)
    assert props["f"] == 4.0 and isinstance(props["f"], float)
    assert props["s"] == "4" and isinstance(props["s"], str)
    assert props["b"] is True
    assert serialize_dataset(graph).splitlines()[1].count("4.0") == 1


EMPTY_DOC = HEADER + "\n"
NODE_LINE = '{"kind": "node", "labels": ["A"], "properties": {}}'
NO_HEADER_DOC = '{"kind": "node", "labels": ["A"], "properties": {}}'
BAD_JSON_DOC = HEADER + "\n" + '{"kind": "node", "labels": ["A"], "properties": {}}' + "\n" + "{oops"
UNKNOWN_KIND_DOC = HEADER + "\n" + '{"kind": "edge"}'
BAD_ENDPOINT_DOC = "\n".join(
    [
        HEADER,
        '{"kind": "node", "labels": ["A"], "properties": {}}',
        '{"kind": "rel", "src": 0, "rel_type": "R", "dst": 1, "properties": {}}',
    ]
)
NAN_DOC = HEADER + "\n" + '{"kind": "node", "labels": ["A"], "properties": {"x": NaN}}'


def test_empty_dataset():
    graph = load_dataset(EMPTY_DOC)
    stats = graph.stats()
    assert (stats.node_count, stats.relationship_count) == (0, 0)


MISSING_HEADER = 'missing header line {"kind": "header", "schema_version": "1"}'
HEADER_FAULTS = {
    "none": (NO_HEADER_DOC, 1, MISSING_HEADER),
    "empty": ("", 1, MISSING_HEADER),
    "second-non-blank-line": ("\n".join(["", NODE_LINE, " ", HEADER]), 2, MISSING_HEADER),
    "second-header": ("\n".join([HEADER, NODE_LINE, "", HEADER]), 4, "a second header line; the header is line 1"),
    "version-2": (HEADER.replace('"1"', '"2"'), 1, "unsupported schema_version '2'"),
    "a-transcript-header": ('{"kind": "transcript", "schema_version": "1"}', 1, MISSING_HEADER),
}


@pytest.mark.parametrize("text, line, message", HEADER_FAULTS.values(), ids=HEADER_FAULTS)
def test_the_header_is_the_first_non_blank_line_and_the_only_one(text, line, message):
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(text)
    assert (excinfo.value.line, str(excinfo.value)) == (line, f"line {line}: {message}")
    assert load_dataset("\n".join(["", " ", HEADER, NODE_LINE])).stats().node_count == 1


def test_parse_error_reports_line_number():
    text = BAD_JSON_DOC
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(text)
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)


def test_unknown_kind_rejected():
    with pytest.raises(DatasetFormatError):
        load_dataset(UNKNOWN_KIND_DOC)


def test_out_of_range_relationship_index():
    with pytest.raises(DatasetFormatError, match="^line 3: relationship endpoint index 1 is not an integer in 0..0$"):
        load_dataset(BAD_ENDPOINT_DOC)


def test_src_index_equal_to_node_count_rejected(dataset_text):
    first_rel = dataset_text.index('{"dst"')
    # The header and 135 node lines come first, so the first relationship is line 137.
    with pytest.raises(DatasetFormatError, match="^line 137: relationship endpoint index 135 is not an integer in 0..134$"):
        load_dataset(dataset_text[:first_rel] + dataset_text[first_rel:].replace('"src": 0', '"src": 135', 1))


def _rel_line(src: int, dst: int) -> str:
    return json.dumps({"kind": "rel", "src": src, "rel_type": "R", "dst": dst, "properties": {}})


ENDPOINTS = {
    "before-its-nodes": ([_rel_line(0, 1), NODE_LINE, NODE_LINE], None),
    "the-first-bad-one-in-file-order": (
        [_rel_line(0, 1), NODE_LINE, _rel_line(-1, 0), _rel_line(0, 1), NODE_LINE, _rel_line(3, 0)],
        "line 4: relationship endpoint index -1 is not an integer in 0..1",
    ),
    "dst-past-the-last-node": ([NODE_LINE, _rel_line(0, 0), _rel_line(0, 1)], "line 4: relationship endpoint index 1 is not an integer in 0..0"),
    "a-bad-line-after-it-wins": ([_rel_line(0, 9), NODE_LINE, "{oops"], "line 4: invalid JSON: Expecting property name enclosed in double quotes"),
}


@pytest.mark.parametrize("lines, message", ENDPOINTS.values(), ids=ENDPOINTS)
def test_an_endpoint_is_checked_after_the_last_line_and_named_by_its_line(lines, message):
    text = "\n".join([HEADER, *lines])
    if message is None:
        assert load_dataset(text).stats().relationship_count == 1
        return
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("field", ["src", "dst", "rel_type"])
def test_a_relationship_line_missing_a_field_is_named(field):
    entry = {"kind": "rel", "src": 0, "rel_type": "R", "dst": 0, "properties": {}}
    del entry[field]
    with pytest.raises(DatasetFormatError, match=f"^line 3: relationship line missing field '{field}'$"):
        load_dataset("\n".join([HEADER, NODE_LINE, json.dumps(entry)]))


def test_non_finite_property_rejected_with_position():
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(NAN_DOC)
    assert excinfo.value.line == 2


STORE_REJECTS = {
    "int-out-of-range": '{"kind": "node", "labels": ["A"], "properties": {"x": 9223372036854775808}}',
    "empty-key": '{"kind": "node", "labels": ["A"], "properties": {"": 1}}',
    "rel-int-out-of-range": '{"kind": "rel", "src": 0, "rel_type": "R", "dst": 0, "properties": {"w": -9223372036854775809}}',
}


def _store_rejects_doc(line: str) -> str:
    return "\n".join([HEADER, '{"kind": "node", "labels": ["A"], "properties": {}}', line])


@pytest.mark.parametrize("line", STORE_REJECTS.values(), ids=STORE_REJECTS)
def test_property_the_store_rejects_fails_the_parse_with_its_line(line):
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(_store_rejects_doc(line))
    assert excinfo.value.line == 3


NODE = '{"kind": "node", "labels": ["A"], "properties": {"x": 1, "s": "t"}}'


def _outcome(text: str):
    """What a load does with a document: its rendering or its error."""
    try:
        return ("ok", serialize_dataset(load_dataset(text)))
    except DatasetFormatError as exc:
        return ("error", exc.line, str(exc))


def _reference_outcome(line: str):
    """The outcome of ``HEADER + line`` when the line is decoded by json.loads:
    its error, or the outcome of the line holding the same value written out."""
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        return ("error", 2, f"line 2: invalid JSON: {exc.msg}")
    return _outcome(HEADER + "\n" + json.dumps(value))


DECODED_LINES = {
    "valid": NODE,
    "trailing-space": NODE + " ",
    "leading-space": " " + NODE,
    "tabs": "\t" + NODE + "\t",
    "bom": "\ufeff" + NODE,
    "two-values": NODE + " " + NODE,
    "comma-joined": NODE + "," + NODE,
    "truncated": NODE[:-7],
    "nan": NODE.replace("1", "NaN"),
    "infinity": NODE.replace("1", "Infinity"),
    "minus-infinity": NODE.replace("1", "-Infinity"),
    "array": "[]",
    "string": '"x"',
    "number": "1",
    "bad-literal": "nul",
}


@pytest.mark.parametrize("line", DECODED_LINES.values(), ids=DECODED_LINES)
def test_line_decoding_matches_json_loads(line):
    assert _outcome(HEADER + "\n" + line) == _reference_outcome(line)


JOINED_DOC = "\n".join([HEADER, '{"x":1},{"y":2}', '{"c":[{}', "{}]}"])


def test_lines_are_decoded_one_at_a_time():
    # Joined with commas inside brackets these three lines decode to three
    # objects; each line alone is not one JSON value.
    text = JOINED_DOC
    assert json.loads("[" + ",".join(text.splitlines()[1:]) + "]") == [{"x": 1}, {"y": 2}, {"c": [{}, {}]}]
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(text)
    assert excinfo.value.line == 2
    assert str(excinfo.value) == "line 2: invalid JSON: Extra data"


def _small_dataset() -> list[dict]:
    """The entries of a small document, as the objects its lines hold."""
    return [
        {"kind": "node", "labels": ["A"], "properties": {"k": 1}},
        {"kind": "node", "labels": ["B"], "properties": {}},
        {"kind": "rel", "src": 0, "rel_type": "R", "dst": 1, "properties": {"w": 2.5}},
    ]


def _written(entries: list[dict]) -> str:
    return "\n".join([HEADER, *map(json.dumps, entries)])


def _fed(entries: list[dict]):
    """A feed for the graph builder that passes it ``entries`` unchecked."""

    def feed(node, relationship):
        for entry in entries:
            if entry["kind"] == "node":
                node(entry["labels"], entry["properties"])
            else:
                relationship(entry["src"], entry["rel_type"], entry["dst"], entry["properties"])

    return feed


def _spoil(index: int, **fields):
    return lambda entries: entries[index].update(fields)


def _added(kind: str, **fields):
    return lambda entries: entries.append({"kind": kind, **fields})


BAD_ENTRIES = {
    "empty-labels": _added("node", labels=[], properties={}),
    "string-labels": _added("node", labels="Tower", properties={"Tower": 1}),
    "non-string-label": _added("node", labels=[5], properties={}),
    "empty-label": _added("node", labels=["A", ""], properties={}),
    "empty-rel-type": _added("rel", src=0, rel_type="", dst=1, properties={}),
    "nan-property": _added("node", labels=["A"], properties={"x": float("nan")}),
    "int-out-of-range": _added("node", labels=["A"], properties={"x": 2**63}),
    "list-property": _added("rel", src=0, rel_type="R", dst=1, properties={"x": [1]}),
    "empty-key": _added("rel", src=0, rel_type="R", dst=1, properties={"": 1}),
    "none-map": _added("node", labels=["A"], properties=None),
    "rel-none-map": _added("rel", src=0, rel_type="R", dst=0, properties=None),
    "pairs-map": _added("node", labels=["A"], properties=[("x", 1)]),
    "src-minus-one": _spoil(2, src=-1),
    "src-node-count": _spoil(2, src=2),
    "src-half": _spoil(2, src=0.5),
    "src-true": _spoil(2, src=True),
    "dst-node-count": _spoil(2, dst=2),
}


@pytest.mark.parametrize("spoil", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_hand_built_dataset_is_fully_checked(spoil):
    entries = _small_dataset()
    assert load_dataset(_written(entries)).stats().relationship_count == 1
    assert _build(_fed(entries)).stats().relationship_count == 1
    spoil(entries)
    with pytest.raises(DatasetFormatError):  # a line's error, or an endpoint's, named by its line
        load_dataset(_written(entries))
    with pytest.raises(ValidationError):  # the builder's own checks, with no parse before them
        _build(_fed(entries))


def test_label_order_does_not_depend_on_the_hash_seed():
    lines = [HEADER, _node('["Tower", "Sensor", "Device"]', "{}"), _node('["Zulu", "Alpha", "Mike"]', "{}")]
    code = f"from graphqa.graph import load_dataset, serialize_dataset; print(serialize_dataset(load_dataset({chr(10).join(lines)!r})), end='')"
    outputs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.path.dirname(os.path.dirname(graphqa.__file__))}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    nodes = [json.loads(line) for line in outputs[0].decode().splitlines()[1:]]
    assert [node["labels"] for node in nodes] == [["Device", "Sensor", "Tower"], ["Alpha", "Mike", "Zulu"]]


def test_the_names_kept_for_the_benchmark_are_the_load_and_the_identity():
    graph = parse_dataset(HEADER + "\n" + NODE)
    assert _graph_outcome(lambda: graph) == _graph_outcome(lambda: load_dataset(HEADER + "\n" + NODE))
    assert dataset_to_graph(graph) is graph
    with pytest.raises(TypeError, match="^dataset_to_graph takes a PropertyGraph, got str$"):
        dataset_to_graph(HEADER)


def test_a_generated_graph_is_the_load_of_its_serialization():
    config = GeneratorConfig(tower_count=40, attached_sensors=2000, seed=5)
    graph = generate_msa_fixture(config)
    assert len(graph.nodes()) == 2041
    assert _graph_outcome(lambda: graph) == _graph_outcome(lambda: load_dataset(serialize_dataset(graph)))
    # Every node and relationship owns its map.
    maps = [entry.properties for entry in graph.nodes() + graph.relationships()]
    assert len({id(properties) for properties in maps}) == len(maps)


def test_loading_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    with pytest.raises(DatasetFormatError):
        load_dataset(HEADER + "\n{oops")
    assert gc.isenabled()
    gc.disable()
    try:
        load_dataset(HEADER + "\n" + NODE)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_generating_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    phases = []

    def seen(phase, info):
        phases.append(phase)

    gc.callbacks.append(seen)
    try:
        # Far more allocations than a collection's threshold: paused, none runs.
        generate_msa_fixture(GeneratorConfig(tower_count=100, attached_sensors=2000, seed=0))
    finally:
        gc.callbacks.remove(seen)
    assert phases == []
    assert gc.isenabled()
    with pytest.raises(ValidationError, match="^tower_count must be at least 1$"):
        generate_msa_fixture(GeneratorConfig(tower_count=0))
    assert gc.isenabled()
    gc.disable()
    try:
        generate_msa_fixture(config=GeneratorConfig(tower_count=2, attached_sensors=3))
        assert not gc.isenabled()
        with pytest.raises(ValidationError, match="^attached_sensors must be non-negative$"):
            generate_msa_fixture(GeneratorConfig(attached_sensors=-1))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_loaded_graph_keeps_one_copy_of_each_key_label_and_type():
    config = GeneratorConfig(tower_count=40, attached_sensors=2000, seed=5)
    text = serialize_dataset(generate_msa_fixture(config))
    tracemalloc.start()
    try:
        graph = load_dataset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # With a copy of every key and string value per line and a label set per
    # node the peak is about 3.3 MB; with them shared it is about 1.8 MB.
    assert peak < 2.5e6
    first, second = graph.nodes()[-2:]
    assert list(first.properties) == list(second.properties)
    assert all(a is b for a, b in zip(first.properties, second.properties, strict=True))
    assert first.properties is not second.properties
    assert first.properties["Status"] is graph.nodes()[0].properties["Status"]  # "active"
    assert len({id(node.labels) for node in graph.nodes()}) == 2
    assert len({id(rel.rel_type) for rel in graph.relationships()}) == 1


def test_load_and_serialize_keep_the_bytes_of_a_large_dataset():
    config = GeneratorConfig(tower_count=400, attached_sensors=20000, seed=7)
    text = serialize_dataset(generate_msa_fixture(config))
    assert serialize_dataset(load_dataset(text)) == text


def _last_entry_outcome(text: str):
    """What a load makes of a document's last line: its error, or the last
    entry's labels or type and its property items, with their kinds.

    A line that shares nothing with the cases follows, as node 0 for the
    relationships of a document with no other node."""
    try:
        graph = load_dataset(text + "\n" + UNRELATED)
    except DatasetFormatError as exc:
        return ("error", exc.line, str(exc))
    if graph.relationships():
        rel = graph.relationships()[-1]
        return ("rel", rel.src, rel.rel_type, rel.dst, repr(list(rel.properties.items())))
    node = graph.nodes()[-2]
    return ("node", sorted(node.labels), repr(list(node.properties.items())))


def _node(labels: str, properties: str) -> str:
    return f'{{"kind": "node", "labels": {labels}, "properties": {properties}}}'


def _rel(rel_type: str, properties: str) -> str:
    return f'{{"kind": "rel", "src": 0, "rel_type": {rel_type}, "dst": 0, "properties": {properties}}}'


# A line that shares no key sequence, label or relationship type with any case.
UNRELATED = _node('["Z"]', '{"z": 0}')

# (valid line with the same key sequence or labels, line under test)
SEEN_BEFORE = {
    "int-out-of-range": (_node('["A"]', '{"x": 1}'), _node('["A"]', '{"x": 9223372036854775808}')),
    "int-out-of-range-second-key": (NODE, _node('["A"]', '{"x": 9223372036854775808, "s": "t"}')),
    "nan": (NODE, NODE.replace("1", "NaN")),
    "infinity": (NODE, NODE.replace("1", "Infinity")),
    "minus-infinity": (NODE, NODE.replace("1", "-Infinity")),
    "truncated": (NODE, NODE[:-7]),
    "comma-joined": (NODE, NODE + "," + NODE),
    "two-values": (NODE, NODE + " " + NODE),
    "bom": (NODE, "\ufeff" + NODE),
    "empty-key": (_node('["A"]', "{}"), _node('["A"]', '{"": 1}')),
    "rel-int-out-of-range": (_rel('"R"', '{"w": 1}'), _rel('"R"', '{"w": -9223372036854775809}')),
    "rel-empty-type": (_rel('"R"', "{}"), _rel('""', "{}")),
    "rel-int-type": (_rel('"R"', "{}"), _rel("1", "{}")),
    "unhashable-labels": (_node('["A"]', "{}"), _node('[["A"]]', "{}")),
    "int-labels": (_node('["A"]', "{}"), _node("[1]", "{}")),
    "true-labels": (_node('["A"]', "{}"), _node("[true]", "{}")),
    "empty-label": (_node('["A"]', "{}"), _node('["A", ""]', "{}")),
    "labels-and-map-bad": (NODE, _node("[1]", "[]")),
    "map-not-object": (NODE, _node('["A"]', "[]")),
    "repeated-key": (_node('["A"]', '{"x": 5}'), _node('["A"]', '{"x": 1, "x": 2}')),
    "repeated-key-of-two": (_node('["A"]', '{"x": 0, "y": 0}'), _node('["A"]', '{"x": 1, "y": 2, "x": 3}')),
    "keys-in-another-order": (_node('["A"]', '{"x": 1, "y": 2}'), _node('["A"]', '{"y": 3, "x": 4}')),
    "labels-in-another-order": (_node('["A", "B"]', "{}"), _node('["B", "A"]', "{}")),
    "value-kinds": (_node('["A"]', '{"i": 1, "f": 1.0, "b": true}'), _node('["A"]', '{"i": true, "f": 1, "b": 1.0}')),
    "rel-keys": (_rel('"R"', '{"w": 1, "v": 2}'), _rel('"R"', '{"v": 2.5, "w": false}')),
}


@pytest.mark.parametrize("seen, line", SEEN_BEFORE.values(), ids=SEEN_BEFORE)
def test_a_line_parses_the_same_after_one_with_its_keys_or_labels(seen, line):
    alone = _last_entry_outcome("\n".join([HEADER, UNRELATED, line]))
    assert _last_entry_outcome("\n".join([HEADER, seen, line])) == alone
    if alone[0] != "error":  # the map keeps its line's key order and values
        assert alone[-1] == repr(list(json.loads(line)["properties"].items()))


def test_value_kinds_survive_sharing():
    values = ['"1"', "1", "1.0", "true", '"true"', "0", "false"]
    lines = [HEADER] + [_node('["A"]', f'{{"k": {value}}}') for value in values * 2]
    lines.append(_node('["B"]', '{"other": "1", "k": "true"}'))
    text = "\n".join(lines)
    expected = [("1", str), (1, int), (1.0, float), (True, bool), ("true", str), (0, int), (False, bool)] * 2
    maps = [node.properties for node in load_dataset(text).nodes()]
    assert [(props["k"], type(props["k"])) for props in maps[:-1]] == expected
    last = maps[-1]
    assert maps[0]["k"] is maps[7]["k"] is last["other"]  # "1" under two keys
    assert maps[4]["k"] is maps[11]["k"] is last["k"]  # "true"


def _graph_outcome(load):
    """A graph as ids, labels, maps (with value kinds) and adjacency, or the
    class, message and line of the error it raised."""
    try:
        graph = load()
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    nodes = [(n.id, n.labels, repr(list(n.properties.items()))) for n in graph.nodes()]
    rels = [(r.id, r.src, r.rel_type, r.dst, repr(list(r.properties.items()))) for r in graph.relationships()]
    adjacency = [([r.id for r in graph.outgoing(n.id)], [r.id for r in graph.incoming(n.id)]) for n in graph.nodes()]
    return ("graph", nodes, rels, adjacency)


SEPARATORS = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
REL_LINE = '{"kind": "rel", "src": 0, "rel_type": "R", "dst": 1, "properties": {"w": 1}}'


def _documents() -> dict[str, str]:
    """Every document this module parses or loads, and the cases a
    streaming load must agree on."""
    docs = {
        "fixture": serialize_dataset(generate_msa_fixture()),
        "kinds": KINDS_DOC,
        "empty": EMPTY_DOC,
        "no-header": NO_HEADER_DOC,
        "bad-json": BAD_JSON_DOC,
        "unknown-kind": UNKNOWN_KIND_DOC,
        "bad-endpoint": BAD_ENDPOINT_DOC,
        "nan": NAN_DOC,
        "joined": JOINED_DOC,
        "oops": HEADER + "\n{oops",
        "one-node": HEADER + "\n" + NODE,
        "towers-40": serialize_dataset(generate_msa_fixture(GeneratorConfig(tower_count=40, attached_sensors=200, seed=5))),
        "rel-before-its-nodes": "\n".join([HEADER, REL_LINE, NODE, NODE]),
        "bad-endpoint-then-bad-json": "\n".join([HEADER, NODE, REL_LINE.replace('"dst": 1', '"dst": 5'), NODE, "{oops"]),
        "bad-endpoint-then-no-header": "\n".join([NODE, REL_LINE]),
        "no-trailing-newline": "\n".join([HEADER, NODE, NODE, REL_LINE]),
        "blank-lines": "\n".join(["", HEADER, " ", NODE, "\t", NODE, REL_LINE, "", ""]),
    }
    for name, line in STORE_REJECTS.items():
        docs["store-rejects-" + name] = _store_rejects_doc(line)
    for name, line in DECODED_LINES.items():
        docs["decoded-" + name] = HEADER + "\n" + line
    for name, (seen, line) in SEEN_BEFORE.items():
        docs["seen-" + name] = "\n".join([HEADER, seen, line])
        docs["unseen-" + name] = "\n".join([HEADER, UNRELATED, line])
    for separator in SEPARATORS:
        code = f"U+{ord(separator[-1]):04X}" + ("-crlf" if separator == "\r\n" else "")
        docs["between-lines-" + code] = separator.join([HEADER, NODE, NODE, REL_LINE]) + separator
        docs["in-a-string-" + code] = "\n".join([HEADER, _node('["A"]', f'{{"s": "a{separator}b"}}')])
        docs["in-a-label-" + code] = "\n".join([HEADER, _node(f'["A{separator}"]', "{}")])
    return docs


DOCUMENTS = _documents()


@pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
def test_a_load_cut_into_pieces_builds_what_a_whole_load_builds(chunk, monkeypatch, tmp_path):
    whole = {name: _graph_outcome(lambda: load_dataset(text)) for name, text in DOCUMENTS.items()}
    monkeypatch.setattr("graphqa.datafiles._CHUNK", chunk)  # pieces cut anywhere, even inside "\r\n"
    path = tmp_path / "dataset.jsonl"
    for name, text in DOCUMENTS.items():
        assert _graph_outcome(lambda: load_dataset(text)) == whole[name], name
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:  # text mode, as load_dataset_file reads
            read = fh.read()
        assert _graph_outcome(lambda: load_dataset_file(str(path))) == _graph_outcome(lambda: load_dataset(read)), name
    assert 0 < sum(outcome[0] == "graph" for outcome in whole.values()) < len(DOCUMENTS)
    assert whole["rel-before-its-nodes"][0] == "graph"
    assert whole["bad-endpoint-then-bad-json"][1:] == (
        DatasetFormatError,
        "line 5: invalid JSON: Expecting property name enclosed in double quotes",
        5,
    )


def _stable_outcome(outcome) -> str:
    """``_graph_outcome`` as text that no hash seed changes: sorted labels,
    the error's class by name."""
    if outcome[0] == "error":
        _, cls, message, line = outcome
        return repr(("error", cls.__name__, message, line))
    _, nodes, rels, adjacency = outcome
    return repr(("graph", [(i, sorted(labels), props) for i, labels, props in nodes], rels, adjacency))


# sha256 over the outcome of every document in DOCUMENTS. It was taken when
# graphs were still built by parsing into entries and copying them into the
# store, and taken again when a missing header came to name the header
# expected ("no-header", "bad-endpoint-then-no-header") and a bad endpoint
# came to fail as a DatasetFormatError naming its line ("bad-endpoint",
# "seen-rel-keys"); no other outcome changed.
DOCUMENTS_DIGEST = "3f3fd740c530a4a5bfac2870f6d12372c10642d872e95a7d94e710b3afbe7f81"


def test_every_document_loads_to_its_pinned_outcome():
    digest = hashlib.sha256()
    for name, text in DOCUMENTS.items():
        digest.update(f"{name}\t{_stable_outcome(_graph_outcome(lambda: load_dataset(text)))}\n".encode())
    assert len(DOCUMENTS) == 118
    assert digest.hexdigest() == DOCUMENTS_DIGEST


def test_a_file_loads_at_a_peak_near_the_size_of_its_graph(tmp_path):
    config = GeneratorConfig(tower_count=40, attached_sensors=2000, seed=5)
    path = tmp_path / "dataset.jsonl"
    path.write_text(serialize_dataset(generate_msa_fixture(config)), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        graph = load_dataset_file(str(path))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.nodes()) == 2041
    # Reading the whole file, splitting it into lines, parsing every entry and
    # then copying each map into the graph peaked at 1.75 times the graph.
    assert peak < 1.3 * size
    assert peak < 2.5e6


TWO_FAULTS = {
    "empty-label-and-map-not-object": (_node('["A", ""]', "[]"), "node 'properties' must be an object"),
    "empty-label-and-nan": (_node('["A", ""]', '{"x": NaN}'), "label must be a non-empty string, got ''"),
    "nan-and-empty-key": (_node('["A"]', '{"x": NaN, "": 1}'), "float property x=nan must be finite"),
    "rel-string-then-nan": (_rel('"R"', '{"w": "a", "v": NaN}'), "float property v=nan must be finite"),
    "rel-empty-type-and-map-not-object": (_rel('""', "[]"), "relationship 'rel_type' must be a non-empty string"),
    "unhashable-labels-and-map-not-object": (_node('[["A"]]', "[]"), "node 'labels' must be a non-empty list of strings"),
}


@pytest.mark.parametrize("line, message", TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_a_line_with_two_faults_reports_the_check_an_entry_runs_first(line, message):
    # Labels, then the map's type, then the label strings, then the values.
    for before in ([], [_node('["A"]', '{"x": 1}')]):
        with pytest.raises(DatasetFormatError) as excinfo:
            parse_dataset("\n".join([HEADER, *before, line]))
        assert str(excinfo.value) == f"line {2 + len(before)}: {message}"
