import json
import os
import re
import stat
import sys

import pytest

from graphqa.cli import data_path
from graphqa.datafiles import atomic_write
from graphqa.errors import CorpusError
from graphqa.evaluation import (
    QuestionSpec,
    compute_metrics,
    corpus_instances,
    evaluate_model,
    load_run_records,
    render_text_report,
    save_run_records,
    validate_corpus,
)
from graphqa.llm import Gateway, ReplayBackend, Transcript
from graphqa.pipeline import PipelineConfig, build_task1_prompt, classify_db_outcome

MODEL = "llama3.1:8b"


def _gateway():
    return Gateway(ReplayBackend(Transcript.load(data_path("transcripts", "llama3.1_8b.jsonl"))))


def test_shipped_transcript_contains_reference_task1_response(fixture_graph, templates, corpus):
    spec = next(s for s in corpus if s.id == "location-tower-4")
    prompt = build_task1_prompt(spec.question, fixture_graph, templates["task1"])
    transcript = Transcript.load(data_path("transcripts", "llama3.1_8b.jsonl"))
    response = transcript.lookup(MODEL, prompt)
    assert response is not None
    assert "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long" in response


def test_evaluate_model_makes_exactly_two_calls_per_question(fixture_graph, corpus, templates):
    gateway = _gateway()
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, corpus, gateway, config, include_rephrasings=False)
    assert len(records) == 7
    assert gateway.calls == 14


def test_evaluate_model_classifies_each_output_once(monkeypatch, fixture_graph, corpus, templates):
    # Grading reads the outcome the pipeline recorded, so a replay classifies
    # each instance's output once, wherever the classifier is bound.
    calls = []

    def counting(db_output, expected_values):
        calls.append(db_output)
        return classify_db_outcome(db_output, expected_values)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphqa") and getattr(module, "classify_db_outcome", None) is classify_db_outcome:
            monkeypatch.setattr(module, "classify_db_outcome", counting)
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, corpus, _gateway(), config)
    assert len(records) == 77
    assert calls == [record.run.db_output for record in records]


def test_run_records_save_load_round_trip(tmp_path, fixture_graph, corpus, templates):
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, corpus, _gateway(), config, include_rephrasings=False)
    path = tmp_path / "runs.jsonl"
    save_run_records(str(path), MODEL, records)
    loaded_model, loaded = load_run_records(str(path))
    assert loaded_model == MODEL
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def _with_outcome(record, outcome):
    record["run"]["outcome"] = outcome
    return record


def _with_run_field(record, name):
    record["run"][name] = 1
    return record


def _with_grade(record, name, value):
    record["grades"][name] = value
    return record


class _Raw(str):
    """A corrupt line written as it is, not as JSON."""


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda record: _with_outcome(record, "bogus"),
        lambda record: _with_run_field(record, "extra"),
        lambda record: [1, 2],
        lambda record: "record",
        lambda record: {key: value for key, value in record.items() if key != "grades"},
        lambda record: _with_grade(record, "em", "1"),
        lambda record: _with_grade(record, "content", True),
        lambda record: _with_grade(record, "content_length", 4.5),
        lambda record: _with_run_field(record, "model_task1"),
        lambda record: {**record, "is_trick": 0},
        lambda record: _Raw("{oops"),
    ],
    ids=[
        "unknown-outcome",
        "extra-field",
        "array",
        "string",
        "missing-field",
        "text-grade",
        "boolean-grade",
        "float-length",
        "number-model",
        "number-trick-flag",
        "invalid-json",
    ],
)
def test_malformed_run_record_line_raises_corpus_error(tmp_path, fixture_graph, corpus, templates, corrupt):
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, corpus[:2], _gateway(), config, include_rephrasings=False)
    path = tmp_path / "runs.jsonl"
    save_run_records(str(path), MODEL, records)
    header, first, second = path.read_text().splitlines()
    line = corrupt(json.loads(second))
    path.write_text("\n".join([header, first, line if isinstance(line, _Raw) else json.dumps(line)]) + "\n")
    with pytest.raises(CorpusError, match="line 3"):
        load_run_records(str(path))


@pytest.mark.parametrize("header", ["{oops", "[1, 2]", '{"kind": "runs", "schema_version": "0"}'])
def test_run_record_file_without_valid_header_raises_corpus_error(tmp_path, header):
    path = tmp_path / "runs.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(CorpusError, match="no valid header"):
        load_run_records(str(path))


def test_report_can_be_rebuilt_from_disk_without_corpus(tmp_path, fixture_graph, corpus, templates):
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, corpus, _gateway(), config)
    path = tmp_path / "runs.jsonl"
    save_run_records(str(path), MODEL, records)
    _, loaded = load_run_records(str(path))
    assert compute_metrics(loaded) == compute_metrics(records)


def test_a_rephrasing_equal_to_its_question_leaves_one_length_row_per_question(fixture_graph, corpus, templates):
    specs = [spec._replace(rephrasings=[spec.question, *spec.rephrasings[:1]]) for spec in corpus[:2]]
    config = PipelineConfig(model_task1=MODEL, templates=templates)
    records = evaluate_model(fixture_graph, specs, _gateway(), config)
    assert [record.run.question for record in records[:2]] == [specs[0].question] * 2
    text = render_text_report(compute_metrics(records))
    table = text.split("(original questions)\n")[1].splitlines()[2:]
    assert [row.split("  ")[1] for row in table] == [spec.question for spec in specs]


@pytest.mark.parametrize(
    "save",
    [
        lambda path: save_run_records(path, MODEL, []),
        lambda path: Transcript().save(path),
    ],
    ids=["run-records", "transcript"],
)
def test_failed_write_keeps_old_file_and_leaves_no_part_file(tmp_path, monkeypatch, save):
    path = tmp_path / "model.runs.jsonl"
    path.write_bytes(b"old bytes\n")

    def fail(*args):
        raise OSError("disk full")

    for failing in ("replace", "fsync"):
        with monkeypatch.context() as patch:
            patch.setattr(os, failing, fail)
            with pytest.raises(OSError, match="disk full"):
                save(str(path))
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["model.runs.jsonl"]


def test_a_write_is_on_disk_before_it_replaces_the_old_file(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        stat_result = os.fstat(fd)
        events.append(("fsync", stat_result.st_ino, stat_result.st_size))
        fsync(fd)

    def logged_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    atomic_write(str(tmp_path / "report.txt"), "text\n")
    inode = (tmp_path / "report.txt").stat().st_ino
    assert events == [("fsync", inode, 5), ("replace", inode, 5)]


def test_written_files_get_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("")
    path = tmp_path / "report.txt"
    atomic_write(str(path), "text\n")
    assert path.read_text() == "text\n"
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_corpus_expands_to_77_instances(corpus):
    instances = corpus_instances(corpus)
    assert len(instances) == 77
    assert len(corpus_instances(corpus, include_rephrasings=False)) == 7
    originals = [q for _, variant, q in instances if variant == 0]
    assert len(originals) == 7
    texts = [q for _, _, q in instances]
    assert len(set(texts)) == 77  # no duplicate phrasings anywhere



COUNT_T8 = "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN count(s) AS SensorCount"
NAMES_T22 = "MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name"


def test_validate_corpus_accepts_reference_queries_that_reach_their_outcome(fixture_graph):
    validate_corpus(
        fixture_graph,
        [
            QuestionSpec(id="count", question="q?", ground_truth_query=COUNT_T8, expected_values=["9"]),
            QuestionSpec(id="trick", question="q?", ground_truth_query=NAMES_T22, is_trick=True),
        ],
    )


@pytest.mark.parametrize(
    "query, expected, is_trick, message",
    [
        (COUNT_T8, [], True, "trick ground truth returned '[<Record SensorCount=9>]', expected []"),
        (NAMES_T22, ["9"], True, "trick questions must have no expected values"),
        (COUNT_T8, [], False, "non-trick question needs expected values"),
        (NAMES_T22, ["9"], False, "ground-truth output does not contain all expected values"),
        # Token boundaries: 19 is not 9, and 3 is not inside 13.
        (COUNT_T8, ["19"], False, "ground-truth output does not contain all expected values"),
        ("MATCH (t:Tower) RETURN count(t)", ["3"], False, "ground-truth output does not contain all expected values"),
        ("MATCH (t:Tower) RETURN size(t)", ["9"], False, "ground-truth query failed"),
    ],
)
def test_validate_corpus_rejects_a_reference_query_that_misses_its_outcome(
    fixture_graph, query, expected, is_trick, message
):
    spec = QuestionSpec(id="q", question="q?", ground_truth_query=query, expected_values=expected, is_trick=is_trick)
    with pytest.raises(CorpusError, match="^q: " + re.escape(message)):
        validate_corpus(fixture_graph, [spec])
