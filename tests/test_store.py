import math
import random

import pytest

from generators import build_graph
from graphqa import data_path
from graphqa.cypher import execute, parse_query
from graphqa.errors import DatasetFormatError, ValidationError
from graphqa.evaluation import evaluate_model
from graphqa.graph import load_dataset, load_dataset_file, serialize_dataset, store
from graphqa.graph.store import PropertyGraph, schema_description
from graphqa.llm import Gateway, ReplayBackend, Transcript
from graphqa.pipeline import PipelineConfig


def test_graph_has_only_read_methods():
    public = {name for name in dir(PropertyGraph) if not name.startswith("_")}
    assert public == {
        "node",
        "nodes",
        "relationships",
        "nodes_with_label",
        "nodes_with_property",
        "outgoing",
        "incoming",
        "stats",
    }


def test_ids_follow_file_order():
    graph = build_graph(
        [({"Sensor"}, {}), ({"Tower"}, {"Tower": 4, "Lat": 32.58088351, "Long": -106.7533307})],
        [(1, "HAS_SENSOR", 0), (1, "HAS_SENSOR", 1)],
    )
    assert [(n.id, n.labels) for n in graph.nodes()] == [(0, {"Sensor"}), (1, {"Tower"})]
    node = graph.node(1)
    assert node.properties["Tower"] == 4
    assert isinstance(node.properties["Lat"], float)
    rels = [(r.id, r.src, r.dst, r.rel_type) for r in graph.outgoing(1)]
    assert rels == [(0, 1, 0, "HAS_SENSOR"), (1, 1, 1, "HAS_SENSOR")]
    assert graph.stats().relationship_count == 2


def test_property_kinds_validated():
    for value in [float("nan"), math.inf, 2**63, [1, 2]]:
        with pytest.raises(DatasetFormatError, match="^line 2: "):
            build_graph([({"A"}, {"x": value})])


def test_stats_counts_distinct_property_keys():
    graph = build_graph([({"A"}, {"x": 1, "y": "s"}), ({"B"}, {"x": 2.5})], [(0, "R", 1, {"z": True})])
    stats = graph.stats()
    assert stats.node_count == 2
    assert stats.relationship_count == 1
    assert stats.property_key_count == 3
    assert stats.label_counts == {"A": 1, "B": 1}


def test_stats_empty_graph():
    stats = PropertyGraph().stats()
    assert (stats.node_count, stats.relationship_count, stats.property_key_count) == (0, 0, 0)


def test_stats_match_independent_recount_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        nodes = []
        for _ in range(rng.randint(1, 60)):
            labels = {rng.choice("ABCDE") for _ in range(rng.randint(1, 2))}
            props = {k: rng.randint(0, 5) for k in rng.sample("pqrstuv", rng.randint(0, 4))}
            nodes.append((labels, props))
        ids = range(len(nodes))
        rels = [(rng.choice(ids), rng.choice("RS"), rng.choice(ids)) for _ in range(rng.randint(0, 80))]
        graph = build_graph(nodes, rels)
        stats = graph.stats()
        # Recount from primitives, not via the stats() implementation.
        nodes = graph.nodes()
        rels = graph.relationships()
        keys = set()
        label_counts: dict = {}
        for node in nodes:
            keys.update(node.properties)
            for label in node.labels:
                label_counts[label] = label_counts.get(label, 0) + 1
        for rel in rels:
            keys.update(rel.properties)
        assert stats.node_count == len(nodes)
        assert stats.relationship_count == len(rels)
        assert stats.property_key_count == len(keys)
        assert stats.label_counts == label_counts


def test_schema_description_empty_graph_sentinel():
    assert "no labels" in schema_description(PropertyGraph())


def test_schema_description_lists_labels_keys_and_relationships(fixture_graph):
    text = schema_description(fixture_graph)
    assert "Tower:" in text and "Sensor:" in text
    assert "(:Tower)-[:HAS_SENSOR]->(:Sensor)" in text
    # Alphabetical and stable.
    assert text == schema_description(fixture_graph)


def test_schema_description_new_label_changes_exactly_one_line(fixture_graph, dataset_text):
    before = schema_description(fixture_graph).splitlines()
    gateway = '{"kind": "node", "labels": ["Gateway"], "properties": {"Name": "GW-1"}}'
    after = schema_description(load_dataset(dataset_text + gateway)).splitlines()
    added = [line for line in after if line not in before]
    removed = [line for line in before if line not in after]
    assert len(added) == 1 and "Gateway" in added[0]
    assert not removed


def test_schema_rendered_once_per_evaluation(monkeypatch, shipped_dataset_path, corpus, templates):
    graph = load_dataset_file(shipped_dataset_path)  # a graph no other test has described
    renders = []
    render = store._render_schema
    monkeypatch.setattr(store, "_render_schema", lambda g: renders.append(g) or render(g))
    transcript = Transcript.load(data_path("transcripts", "llama3.1_8b.jsonl"))
    config = PipelineConfig(model_task1="llama3.1:8b", templates=templates)
    records = evaluate_model(graph, corpus, Gateway(ReplayBackend(transcript)), config)
    assert len(records) == 77
    assert len(renders) == 1


def _interleaved_graph(seed: int) -> PropertyGraph:
    """Node and relationship entries drawn mixed, each relationship between
    nodes drawn before it, with self-loops and parallel edges."""
    rng = random.Random(seed)
    nodes = [({"A"}, {"i": 0})]
    rels = []
    for _ in range(120):
        if rng.random() < 0.3:
            labels = {rng.choice("ABC")} | ({rng.choice("ABC")} if rng.random() < 0.3 else set())
            nodes.append((labels, {"i": len(nodes)}))
        else:
            ids = range(len(nodes))
            src = rng.choice(ids)
            dst = src if rng.random() < 0.15 else rng.choice(ids)
            rels.append((src, rng.choice("RS"), dst, {"w": rng.randint(0, 3)}))
    return build_graph(nodes, rels)


def test_adjacency_lists_stay_in_id_order_when_adds_interleave():
    for seed in range(5):
        graph = _interleaved_graph(seed)
        rels = graph.relationships()
        assert [r.id for r in rels] == sorted(r.id for r in rels)
        loops = 0
        for node in graph.nodes():
            assert list(graph.outgoing(node.id)) == [r for r in rels if r.src == node.id]
            assert list(graph.incoming(node.id)) == [r for r in rels if r.dst == node.id]
            loops += sum(1 for r in graph.outgoing(node.id) if r.dst == node.id)
        assert loops > 0
    assert list(graph.outgoing(10_000)) == [] and list(graph.incoming(10_000)) == []


def test_expansion_follows_a_relationship_scan_in_each_direction():
    graph = _interleaved_graph(11)
    rels = graph.relationships()
    for node in graph.nodes()[:15]:
        i = node.properties["i"]
        right = [(r.id, r.dst) for r in rels if r.src == node.id]
        left = [(r.id, r.src) for r in rels if r.dst == node.id]
        # Undirected: one scan in id order; a self-loop matches once.
        either = [(r.id, r.dst if r.src == node.id else r.src) for r in rels if node.id in (r.src, r.dst)]
        for arrow, expected in (("-[r]->", right), ("<-[r]-", left), ("-[r]-", either)):
            result = execute(graph, parse_query(f"MATCH (a {{i: {i}}}){arrow}(b) RETURN r, b"))
            assert [(r.id, b.id) for r, b in result.rows] == expected, arrow


def test_nodes_with_label_keeps_id_order():
    graph = _interleaved_graph(3)
    for label in "ABC":
        expected = [n for n in graph.nodes() if label in n.labels]
        assert graph.nodes_with_label(label) == expected
        assert [n.id for n in expected] == sorted(n.id for n in expected)
    assert graph.nodes_with_label("missing") == []
    # The returned list is a copy: changing it leaves the index alone.
    graph.nodes_with_label("A").clear()
    assert graph.nodes_with_label("A")


def _mixed_kind_graph() -> PropertyGraph:
    nodes = [({"A"}, {"k": value}) for value in [1, 1.0, True, "1", 0, -0.0, False, 2, "x", 1]]
    nodes += [({"A"}, {"other": 1}), ({"B", "A"}, {"k": 1}), ({"B"}, {"k": 1.0})]
    return build_graph(nodes)


def test_nodes_with_property_matches_kind_and_value_in_id_order():
    graph = _mixed_kind_graph()
    expected = [(1, [0, 1, 9, 11]), (1.0, [0, 1, 9, 11]), (True, [2]), ("1", [3]), (0, [4, 5]), (-0.0, [4, 5]), (False, [6])]
    for value, ids in expected:
        assert [n.id for n in graph.nodes_with_property("A", "k", value)] == ids, repr(value)
    assert [n.id for n in graph.nodes_with_property("B", "k", 1)] == [11, 12]
    assert list(graph.nodes_with_property("A", "k", 3)) == []
    assert list(graph.nodes_with_property("A", "missing", 1)) == []
    assert list(graph.nodes_with_property("missing", "k", 1)) == []


def test_loading_a_dataset_builds_no_property_index(dataset_text):
    graph = load_dataset(dataset_text)
    assert graph._property_index == {}
    assert [n.properties["Tower"] for n in graph.nodes_with_property("Tower", "Tower", 4)] == [4]
    assert list(graph._property_index) == [("Tower", "Tower")]


def test_dataset_round_trip_through_the_store_is_unchanged(dataset_text):
    assert serialize_dataset(load_dataset(dataset_text)) == dataset_text
    graph = _interleaved_graph(5)
    rebuilt = load_dataset(serialize_dataset(graph))
    assert serialize_dataset(rebuilt) == serialize_dataset(graph)
    for node in graph.nodes():
        for side in ("outgoing", "incoming"):
            ids = [r.id for r in getattr(rebuilt, side)(node.id)]
            assert ids == [r.id for r in getattr(graph, side)(node.id)]


@pytest.mark.parametrize("node_id", [True, 1.0, -1, "n"], ids=["true", "float", "minus-one", "node-count"])
def test_only_an_int_in_range_names_a_node(fixture_graph, node_id):
    count = len(fixture_graph.nodes())
    node_id = count if node_id == "n" else node_id
    assert len(fixture_graph.outgoing(1)) == 10  # node 1 is a tower, whose id True and 1.0 equal
    with pytest.raises(ValidationError, match=f"^no node with id {node_id}$"):
        fixture_graph.node(node_id)
    assert fixture_graph.outgoing(node_id) == () and fixture_graph.incoming(node_id) == ()
    assert fixture_graph.node(count - 1).id == count - 1


def test_adjacency_is_frozen_once_the_build_ends():
    graph = _interleaved_graph(2)
    for node in graph.nodes():
        for side in (graph.outgoing, graph.incoming):
            assert type(side(node.id)) is tuple and side(node.id) is side(node.id)
