"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from generators import random_graph, random_query_ast
from oracle import cell_key, oracle_rows

from graphqa.cli import data_path, main
from graphqa.cypher import execute, parse_query, serialize_records
from graphqa.cypher.ast import print_query
from graphqa.errors import EngineError
from graphqa.evaluation import compute_metrics, evaluate_model, validate_corpus
from graphqa.evaluation.scoring import grade_run
from graphqa.llm import Gateway, ReplayBackend, Transcript, extract_cypher
from graphqa.pipeline import (
    NAN_SENTINEL,
    OutcomeCase,
    PipelineConfig,
    PipelineRun,
    classify_db_outcome,
)

MODELS = ["gemma2:2b", "llama3.2:3b", "llama3.1:8b", "deepseek-coder:6.7b"]

REFERENCE_RECORD = "[<Record Lat=32.58088351 Long=-106.7533307>]"

TABLE_7Q = {
    "gemma2:2b": (14.3, 71.4, 85.7, 57.1),
    "llama3.2:3b": (28.6, 71.4, 100.0, 71.4),
    "llama3.1:8b": (42.9, 85.7, 100.0, 85.7),
    "deepseek-coder:6.7b": (28.6, 85.7, 71.4, 57.1),
}
TABLE_77Q = {
    "gemma2:2b": (15.6, 51.9, 76.6, 33.8),
    "llama3.2:3b": (15.6, 57.1, 85.7, 44.2),
    "llama3.1:8b": (37.7, 61.0, 96.1, 57.1),
    "deepseek-coder:6.7b": (20.78, 42.9, 74.0, 31.2),
}
TABLE_MISINFO = {
    "gemma2:2b": 35.1,
    "llama3.2:3b": 7.8,
    "llama3.1:8b": 5.2,
    "deepseek-coder:6.7b": 26.0,
}
TABLE_EM_ONLY = {
    "gemma2:2b": 14.3,
    "llama3.2:3b": 14.3,
    "llama3.1:8b": 37.7,
    "deepseek-coder:6.7b": 14.3,
}
TOLERANCE_PP = 0.05


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= TOLERANCE_PP + 1e-9


def _gateway(model: str) -> Gateway:
    path = data_path("transcripts", model.replace(":", "_") + ".jsonl")
    return Gateway(ReplayBackend(Transcript.load(path)))


@pytest.fixture(scope="module")
def graded_records(fixture_graph, corpus, templates):
    records = {}
    for model in MODELS:
        config = PipelineConfig(model_task1=model, templates=templates)
        records[model] = evaluate_model(fixture_graph, corpus, _gateway(model), config)
    return records


def test_serialization_bit_exactness(fixture_graph, corpus):
    with criterion("serialization bit-exactness (reference 44-char record)"):
        started = time.perf_counter()
        spec = next(s for s in corpus if s.id == "location-tower-4")
        out = serialize_records(execute(fixture_graph, parse_query(spec.ground_truth_query)))
        assert out == REFERENCE_RECORD
        assert len(out) == 44
        assert time.perf_counter() - started < 1.0


def test_fixture_statistics(fixture_graph):
    with criterion("fixture statistics 135 nodes / 121 relationships / 11 keys"):
        stats = fixture_graph.stats()
        assert stats.node_count == 135
        assert stats.relationship_count == 121
        assert stats.property_key_count == 11


def test_ground_truth_corpus_gate(fixture_graph, corpus):
    with criterion("ground-truth corpus gate (7 queries parse, execute, self-check)"):
        started = time.perf_counter()
        assert len(corpus) == 7
        validate_corpus(fixture_graph, corpus)  # raises on any violation
        trick = [s for s in corpus if s.is_trick]
        assert len(trick) == 1
        assert serialize_records(execute(fixture_graph, parse_query(trick[0].ground_truth_query))) == "[]"
        assert time.perf_counter() - started < 1.0


def test_metric_arithmetic_reproduction(graded_records):
    with criterion("metric reproduction: 7q table, 77q table, misinformation, EM-only, 19.4 gain"):
        assert [len(graded_records[model]) for model in MODELS] == [77] * len(MODELS)
        records_77 = [record for model in MODELS for record in graded_records[model]]

        report_7 = compute_metrics([r for r in records_77 if r.variant == 0])
        for model, (em, content, output, absolute) in TABLE_7Q.items():
            scores = report_7.scores[model]
            assert scores.n == 7
            assert _close(scores.em_score, em), (model, "7q em", scores.em_score)
            assert _close(scores.content_score, content), (model, "7q content", scores.content_score)
            assert _close(scores.output_score, output), (model, "7q output", scores.output_score)
            assert _close(scores.absolute_score, absolute), (model, "7q absolute", scores.absolute_score)

        report_77 = compute_metrics(records_77)
        for model, (em, content, output, absolute) in TABLE_77Q.items():
            scores = report_77.scores[model]
            assert scores.n == 77
            assert _close(scores.em_score, em), (model, "em", scores.em_score)
            assert _close(scores.content_score, content), (model, "content", scores.content_score)
            assert _close(scores.output_score, output), (model, "output", scores.output_score)
            assert _close(scores.absolute_score, absolute), (model, "absolute", scores.absolute_score)
            assert _close(scores.misinformation_score, TABLE_MISINFO[model])
            assert _close(scores.absolute_em_only, TABLE_EM_ONLY[model])

        # Headline gain: content-based absolute over EM-only absolute, on the
        # one-decimal score renderings.
        best = report_77.scores["llama3.1:8b"]
        gain = round(best.absolute_score, 1) - round(best.absolute_em_only, 1)
        assert _close(gain, 19.4), gain


def test_executor_oracle_equivalence():
    with criterion("executor equals brute-force oracle on 500 random graph/query pairs"):
        started = time.perf_counter()
        rng = random.Random(20240817)
        mismatches = 0
        for index in range(500):
            graph = random_graph(rng, max_nodes=30, max_rels=36)
            query = random_query_ast(rng, max_total_edges=3)
            engine = execute(graph, query)
            engine_keyed = Counter(tuple(cell_key(cell) for cell in row) for row in engine.rows)
            expected = oracle_rows(graph, query)
            if engine_keyed != expected:
                mismatches += 1
                print("mismatch:", print_query(query))
            # The text path must agree with the AST path.
            reparsed = parse_query(print_query(query))
            engine2 = execute(graph, reparsed)
            assert Counter(tuple(cell_key(c) for c in row) for row in engine2.rows) == engine_keyed
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_parser_round_trip_property():
    with criterion("parser round-trip over 1000 generated ASTs"):
        rng = random.Random(424242)
        failures = 0
        for _ in range(1000):
            ast = random_query_ast(rng, allow_order=True)
            printed = print_query(ast)
            if parse_query(printed) != ast:
                failures += 1
                print("round-trip failure:", printed)
        assert failures == 0


def test_grade_implication_suite(fixture_graph, corpus, templates):
    with criterion("grade implications over 10^4 randomized pipeline scenarios"):
        rng = random.Random(99)
        specs = list(corpus)

        response_pools = {}
        for spec in specs:
            pool = [
                spec.ground_truth_query,
                spec.ground_truth_query + " ;",
                f"```cypher\n{spec.ground_truth_query}\n```",
                "Here is the query: " + spec.ground_truth_query,
                "MATCH (t:Tower) WITH t RETURN t",
                "I cannot help with that question.",
                "MATCH (t:Tower {Tower: 50})-[:HAS_SENSOR]->(s) RETURN s.Name",
                "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name",
                "MATCH (t:Tower {Tower: 8}) RETURN t.Lat, t.Long",
                "MATCH (t:Tower) RETURN count(*)",
                "MATCH (n) RETURN n LIMIT 3",
                "MATCH (t:Tower {Tower: 4}) RETURN t",
                "RETURN 1 / 0",
                "MATCH (t:Tower {",
            ]
            response_pools[spec.id] = pool

        answer_pool_static = [
            "I could not retrieve the requested information from the database.",
            "Tower 22 does not exist in the network.",
            "The answer is 42.",
            "",
            "The database lists Temperature-T08 and Humidity-T08.",
            "No matching records were found.",
            "Everything is fine.",
            "There are 13 towers.",
            "There are 9 sensors on tower 8.",
        ]

        checked = 0
        for _ in range(10_000):
            spec = rng.choice(specs)
            # Occasionally borrow another question's response to stress
            # cross-question grading.
            source = rng.choice(specs) if rng.random() < 0.2 else spec
            response = rng.choice(response_pools[source.id])
            candidate = extract_cypher(response)
            engine_error = None
            if candidate.extracted_query is not None:
                try:
                    db_output = serialize_records(
                        execute(fixture_graph, parse_query(candidate.extracted_query))
                    )
                except EngineError as exc:
                    engine_error = str(exc)
                    db_output = NAN_SENTINEL
            else:
                db_output = NAN_SENTINEL
            outcome = classify_db_outcome(db_output, spec.expected_values)
            answers = answer_pool_static + [
                "Values: " + ", ".join(spec.expected_values) + "." if spec.expected_values else "Nothing.",
            ]
            answer = rng.choice(answers + [None])
            run = PipelineRun(
                question=spec.question,
                model_task1="scenario",
                model_task2="scenario",
                task1_prompt="p1",
                task1_response=response,
                extracted_query=candidate.extracted_query,
                extraction_method=candidate.extraction_method,
                engine_error=engine_error,
                db_output=db_output,
                outcome=outcome,
                task2_prompt="p2",
                answer=answer,
            )
            grades, _reason = grade_run(run, spec)  # validate() runs inside
            assert not (grades.em == 1 and grades.content != 1)
            assert not (grades.content == 1 and grades.misinformation != 0)
            assert not (grades.absolute_correct == 1 and grades.output_correct != 1)
            assert not (grades.absolute_correct == 1 and grades.content != 1)
            checked += 1
        assert checked >= 10_000


def test_closest_pair_consistency(fixture_graph, corpus):
    with criterion("closest-pair ground truth equals haversine oracle and engine result"):
        from graphqa.cypher import haversine_distance

        towers = {
            n.properties["Tower"]: (n.properties["Lat"], n.properties["Long"])
            for n in fixture_graph.nodes_with_label("Tower")
        }
        # Independent O(n^2) oracle over the fixture.
        best = min(
            (haversine_distance(towers[a], towers[b]), a, b)
            for a in towers
            for b in towers
            if a < b
        )
        oracle_pair = [str(best[1]), str(best[2])]
        spec = next(s for s in corpus if s.id == "closest-towers")
        assert spec.expected_values == oracle_pair
        result = execute(fixture_graph, parse_query(spec.ground_truth_query))
        assert [str(cell) for cell in result.rows[0]] == oracle_pair


def test_end_to_end_replay_determinism(tmp_path):
    with criterion("cmd_eval replayed twice produces byte-identical reports"):
        outputs = []
        for tag in ("first", "second"):
            out_dir = tmp_path / tag
            code = main(
                [
                    "eval",
                    "--models",
                    ",".join(MODELS),
                    "--out",
                    str(out_dir),
                    "--replay",
                    data_path("transcripts"),
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out_dir / "report.txt").read_bytes(),
                    (out_dir / "report.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
