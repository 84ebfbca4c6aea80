import pytest

from graphqa.errors import DatasetFormatError, ValidationError
from graphqa.graph import dataset_to_graph, generate_msa_fixture, load_dataset, serialize_dataset
from graphqa.graph.dataset import parse_dataset

HEADER = '{"kind": "header", "schema_version": "1"}'


def test_round_trip_is_lossless(dataset_text):
    graph = load_dataset(dataset_text)
    again = serialize_dataset(parse_dataset(dataset_text))
    assert again == dataset_text
    graph2 = load_dataset(again)
    assert [(n.id, sorted(n.labels), n.properties) for n in graph.nodes()] == [
        (n.id, sorted(n.labels), n.properties) for n in graph2.nodes()
    ]
    assert [(r.src, r.rel_type, r.dst, r.properties) for r in graph.relationships()] == [
        (r.src, r.rel_type, r.dst, r.properties) for r in graph2.relationships()
    ]


def test_value_kinds_survive_round_trip():
    text = "\n".join(
        [
            HEADER,
            '{"kind": "node", "labels": ["A"], "properties": {"i": 4, "f": 4.0, "s": "4", "b": true}}',
        ]
    )
    graph = load_dataset(text)
    props = graph.node(0).properties
    assert props["i"] == 4 and isinstance(props["i"], int) and not isinstance(props["i"], bool)
    assert props["f"] == 4.0 and isinstance(props["f"], float)
    assert props["s"] == "4" and isinstance(props["s"], str)
    assert props["b"] is True
    assert serialize_dataset(parse_dataset(text)).splitlines()[1].count("4.0") == 1


def test_empty_dataset():
    graph = load_dataset(HEADER + "\n")
    stats = graph.stats()
    assert (stats.node_count, stats.relationship_count) == (0, 0)


def test_missing_header_rejected():
    with pytest.raises(DatasetFormatError):
        parse_dataset('{"kind": "node", "labels": ["A"], "properties": {}}')


def test_parse_error_reports_line_number():
    text = HEADER + "\n" + '{"kind": "node", "labels": ["A"], "properties": {}}' + "\n" + "{oops"
    with pytest.raises(DatasetFormatError) as excinfo:
        parse_dataset(text)
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)


def test_unknown_kind_rejected():
    with pytest.raises(DatasetFormatError):
        parse_dataset(HEADER + "\n" + '{"kind": "edge"}')


def test_out_of_range_relationship_index():
    text = "\n".join(
        [
            HEADER,
            '{"kind": "node", "labels": ["A"], "properties": {}}',
            '{"kind": "rel", "src": 0, "rel_type": "R", "dst": 1, "properties": {}}',
        ]
    )
    dataset = parse_dataset(text)
    with pytest.raises(ValidationError):
        dataset_to_graph(dataset)


def test_src_index_equal_to_node_count_rejected():
    dataset = generate_msa_fixture()
    dataset.relationships[0].src_index = len(dataset.nodes)
    with pytest.raises(ValidationError):
        dataset_to_graph(dataset)


def test_non_finite_property_rejected_with_position():
    text = HEADER + "\n" + '{"kind": "node", "labels": ["A"], "properties": {"x": NaN}}'
    with pytest.raises(DatasetFormatError) as excinfo:
        parse_dataset(text)
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        '{"kind": "node", "labels": ["A"], "properties": {"x": 9223372036854775808}}',
        '{"kind": "node", "labels": ["A"], "properties": {"": 1}}',
        '{"kind": "rel", "src": 0, "rel_type": "R", "dst": 0, "properties": {"w": -9223372036854775809}}',
    ],
    ids=["int-out-of-range", "empty-key", "rel-int-out-of-range"],
)
def test_property_the_store_rejects_fails_the_parse_with_its_line(line):
    node = '{"kind": "node", "labels": ["A"], "properties": {}}'
    with pytest.raises(DatasetFormatError) as excinfo:
        parse_dataset("\n".join([HEADER, node, line]))
    assert excinfo.value.line == 3
