import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphqa
from graphqa.cli import EXIT_CONFIG, EXIT_CORPUS, EXIT_ENGINE, EXIT_GATEWAY, EXIT_OK, data_path, main

# Child interpreters import the graphqa this process imported, whether it
# came from PYTHONPATH or from pytest's own path setting.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(graphqa.__file__))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}

TOWER_QUESTION = "What is the location of tower 4?"
TOWER_ANSWER = "The location of Tower 4 is at 32.58088351° latitude and -106.7533307° longitude."


def test_gen_data_writes_valid_dataset(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--out", str(out)]) == EXIT_OK
    from graphqa.graph import load_dataset_file

    stats = load_dataset_file(str(out)).stats()
    assert (stats.node_count, stats.relationship_count, stats.property_key_count) == (135, 121, 11)


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen-data", "--out", str(a), "--seed", "7"]) == EXIT_OK
    assert main(["gen-data", "--out", str(b), "--seed", "7"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_invalid_config_exit_code(tmp_path):
    out = tmp_path / "x.jsonl"
    assert main(["gen-data", "--out", str(out), "--tower-count", "0"]) == EXIT_CONFIG


def test_gen_data_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tower_count": 3, "attached_sensors": 5}))
    out = tmp_path / "small.jsonl"
    assert main(["gen-data", "--out", str(out), "--config", str(config)]) == EXIT_OK
    from graphqa.graph import load_dataset_file

    assert load_dataset_file(str(out)).stats().node_count == 9  # 3 towers, 5 attached sensors, 1 spare


@pytest.mark.parametrize(
    "config",
    [{"tower_count": "3"}, {"seed": 1.5}, ["tower_count"], {"attached_sensors": True}],
    ids=["string", "float", "array", "boolean"],
)
def test_gen_data_config_must_be_an_object_of_integers(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x.jsonl"
    assert main(["gen-data", "--out", str(out), "--config", str(path)]) == EXIT_CONFIG
    assert f"config {path}" in capsys.readouterr().err
    assert not out.exists()


def test_ask_one_shot_replay(capsys):
    code = main(
        [
            "ask",
            TOWER_QUESTION,
            "--replay",
            data_path("transcripts"),
            "--model-task1",
            "llama3.1:8b",
        ]
    )
    assert code == EXIT_OK
    assert TOWER_ANSWER in capsys.readouterr().out


def test_ask_show_query_sections(capsys):
    code = main(
        [
            "ask",
            TOWER_QUESTION,
            "--replay",
            data_path("transcripts"),
            "--model-task1",
            "llama3.1:8b",
            "--show-query",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "query:" in out
    assert "db output: [<Record Lat=32.58088351 Long=-106.7533307>]" in out
    assert "answer:" in out


def test_ask_replay_directory_loads_the_task2_models_transcript(capsys):
    args = ["ask", "How many towers are there?", "--model-task2", "gemma2:2b", "--replay", data_path("transcripts")]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == "There are 13 towers.\n"


def test_eval_replay_directory_loads_the_task2_models_transcript(tmp_path):
    out = tmp_path / "out"
    args = ["eval", "--models", "llama3.1:8b", "--model-task2", "gemma2:2b", "--out", str(out)]
    assert main([*args, "--replay", data_path("transcripts"), "--originals-only"]) == EXIT_OK
    header, row = (out / "report.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    # Every stage-2 call finds its entry; a miss would read 0.0 for both.
    assert round(float(cells["output_score"]), 1) == 42.9
    assert round(float(cells["absolute_score"]), 1) == 42.9


def test_ask_replay_miss_exits_gateway_code(capsys):
    code = main(
        [
            "ask",
            "Completely novel question?",
            "--replay",
            data_path("transcripts"),
            "--model-task1",
            "llama3.1:8b",
        ]
    )
    assert code == EXIT_GATEWAY


def test_ask_with_an_undecodable_argument_byte_gives_the_replay_miss_answer():
    # argv decodes the byte 0xff to the lone surrogate "\udcff", which the
    # request hash must take like any other character.
    argv = [sys.executable, "-m", "graphqa.cli", "ask", b"tower \xff", "--replay", data_path("transcripts")]
    result = subprocess.run([*argv, "--model-task1", "llama3.1:8b"], capture_output=True, env=CHILD_ENV)
    assert result.returncode == EXIT_GATEWAY, result.stderr
    miss = rb"\(no answer: task1: no recorded response for model 'llama3\.1:8b' \(request [0-9a-f]{12}\)\)\n"
    assert re.fullmatch(miss, result.stdout)
    assert b"Traceback" not in result.stderr


def test_ask_malformed_transcript_exits_gateway_code(tmp_path):
    (tmp_path / "m.jsonl").write_text('{"kind": "transcript", "schema_version": "1"}\n[1, 2]\n')
    assert main(["ask", TOWER_QUESTION, "--replay", str(tmp_path), "--model-task1", "m"]) == EXIT_GATEWAY


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_a_transcript_answering_a_request_two_ways_exits_gateway_code(tmp_path, capsys, command):
    lines = ['{"kind": "transcript", "schema_version": "1"}']
    lines += [json.dumps({"model": "m", "prompt": "p", "response": reply}) for reply in ("a", "b")]
    (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
    replay = ["--replay", str(tmp_path)]
    if command == "ask":
        argv = ["ask", TOWER_QUESTION, "--model-task1", "m", *replay]
    else:
        argv = ["eval", "--models", "m", "--out", str(tmp_path / "out"), "--originals-only", *replay]
    assert main(argv) == EXIT_GATEWAY
    assert "transcript line 3: response differs from line 2" in capsys.readouterr().err


SHIPPED_MODELS = "llama3.1:8b,llama3.2:3b,gemma2:2b,deepseek-coder:6.7b"


def _without_durations(path: Path) -> list:
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        del record["run"]["durations"]
    return [lines[0], *records]


def test_an_eval_replays_from_its_own_out_directory(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["eval", "--models", SHIPPED_MODELS, "--replay"]
    assert main([*argv, data_path("transcripts"), "--out", str(first)]) == EXIT_OK
    assert main([*argv, str(first), "--out", str(second)]) == EXIT_OK
    digests = {"report.txt": "a3d9a88d7df124af", "report.csv": "35457968b6a4aef9"}
    for name, digest in digests.items():
        assert (second / name).read_bytes() == (first / name).read_bytes()
        assert hashlib.sha256((second / name).read_bytes()).hexdigest().startswith(digest)
    runs = sorted(path.name for path in first.glob("*.runs.jsonl"))
    assert len(runs) == 4 and sorted(path.name for path in second.glob("*.runs.jsonl")) == runs
    for name in runs:
        assert _without_durations(second / name) == _without_durations(first / name)


@pytest.mark.parametrize("command", ["eval", "ask"])
@pytest.mark.parametrize("source", ["transcript file", "transcript directory", "runs directory"])
def test_a_replay_source_with_nothing_for_a_model_exits_config_code_naming_both(tmp_path, capsys, source, command):
    shipped = data_path("transcripts", "llama3.1_8b.jsonl")
    if source == "transcript file":
        replay = shipped
    elif source == "transcript directory":  # the model's file holds another model's entries
        (tmp_path / "src").mkdir()
        for name in ("llama3.1_8b.jsonl", "llama3.1_8x.jsonl"):
            (tmp_path / "src" / name).write_bytes(Path(shipped).read_bytes())
        replay = str(tmp_path / "src")
    else:
        replay = str(tmp_path / "src")
        assert main(["eval", "--models", "llama3.1:8b", "--replay", shipped, "--out", replay, "--originals-only"]) == EXIT_OK
        capsys.readouterr()
    if command == "eval":
        argv = ["eval", "--models", "llama3.1:8x", "--out", str(tmp_path / "out"), "--originals-only"]
    else:
        argv = ["ask", TOWER_QUESTION, "--model-task2", "llama3.1:8x"]
    assert main([*argv, "--replay", replay]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --replay {replay} has no entry for model 'llama3.1:8x'\n"
    assert not (tmp_path / "out").exists()


def test_run_records_answering_a_request_two_ways_exit_gateway_code_naming_both_runs(tmp_path, capsys):
    runs = tmp_path / "runs"
    argv = ["eval", "--models", "llama3.1:8b", "--originals-only", "--replay"]
    assert main([*argv, data_path("transcripts"), "--out", str(runs)]) == EXIT_OK
    path = runs / "llama3.1_8b.runs.jsonl"
    header, *lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["run"]["answer"] = "another answer"
    (runs / "other.runs.jsonl").write_text(f"{header}\n{json.dumps(record)}\n")
    capsys.readouterr()
    assert main([*argv, str(runs), "--out", str(tmp_path / "out")]) == EXIT_GATEWAY
    assert capsys.readouterr().err == (
        f"gateway error: transcript {runs / 'other.runs.jsonl'} record 1: response differs from "
        f"{path} record 3 for the same model and prompt\n"
    )


@pytest.mark.parametrize("content", [b'{"kind": "runs", "schema_version": "1"}\n[1]\n', b"\xff\n"], ids=["bad record", "not utf-8"])
def test_a_malformed_runs_file_to_replay_exits_corpus_code(tmp_path, capsys, content):
    (tmp_path / "m.runs.jsonl").write_bytes(content)
    assert main(["ask", TOWER_QUESTION, "--replay", str(tmp_path)]) == EXIT_CORPUS
    assert str(tmp_path / "m.runs.jsonl") in capsys.readouterr().err


def test_ask_requires_gateway_configuration(monkeypatch):
    monkeypatch.delenv("GRAPHQA_ENDPOINT", raising=False)
    assert main(["ask", TOWER_QUESTION]) == EXIT_CONFIG


def test_ask_corrupt_dataset_exits_engine_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "header", "schema_version": "1"}\n{oops\n')
    code = main(
        ["ask", TOWER_QUESTION, "--data", str(bad), "--replay", data_path("transcripts")]
    )
    assert code == EXIT_ENGINE


def test_interactive_ask_loop(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(TOWER_QUESTION + "\n\n"))
    code = main(
        ["ask", "--replay", data_path("transcripts"), "--model-task1", "llama3.1:8b"]
    )
    assert code == EXIT_OK
    assert TOWER_ANSWER in capsys.readouterr().out


def test_eval_missing_corpus_exits_corpus_code(tmp_path):
    code = main(
        [
            "eval",
            "--corpus",
            str(tmp_path / "missing.json"),
            "--models",
            "llama3.1:8b",
            "--out",
            str(tmp_path / "out"),
            "--replay",
            data_path("transcripts"),
        ]
    )
    assert code == EXIT_CORPUS


def test_eval_writes_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "eval",
            "--models",
            "llama3.1:8b",
            "--out",
            str(out),
            "--replay",
            data_path("transcripts"),
        ]
    )
    assert code == EXIT_OK
    assert (out / "llama3.1_8b.runs.jsonl").exists()
    report = (out / "report.csv").read_text()
    row = next(line for line in report.splitlines() if line.startswith("llama3.1:8b"))
    cells = row.split(",")
    assert cells[1] == "77"
    assert round(float(cells[2]), 1) == 37.7  # EM
    assert round(float(cells[3]), 1) == 61.0  # Content
    assert round(float(cells[4]), 1) == 96.1  # Output
    assert round(float(cells[6]), 1) == 57.1  # Absolute


def test_eval_originals_only_gives_7_runs(tmp_path):
    out = tmp_path / "out7"
    code = main(
        [
            "eval",
            "--models",
            "llama3.1:8b",
            "--out",
            str(out),
            "--replay",
            data_path("transcripts"),
            "--originals-only",
        ]
    )
    assert code == EXIT_OK
    report = (out / "report.csv").read_text()
    row = next(line for line in report.splitlines() if line.startswith("llama3.1:8b"))
    cells = row.split(",")
    assert cells[1] == "7"
    assert round(float(cells[2]), 1) == 42.9


def test_eval_two_models_two_report_rows(tmp_path):
    out = tmp_path / "two"
    code = main(
        [
            "eval",
            "--models",
            "llama3.1:8b,gemma2:2b",
            "--out",
            str(out),
            "--replay",
            data_path("transcripts"),
        ]
    )
    assert code == EXIT_OK
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per model


def test_report_rebuild_from_runs_is_identical(tmp_path):
    out = tmp_path / "out"
    main(
        [
            "eval",
            "--models",
            "llama3.1:8b",
            "--out",
            str(out),
            "--replay",
            data_path("transcripts"),
        ]
    )
    first = (out / "report.txt").read_bytes()
    assert main(["report", "--runs", str(out), "--format", "table-text"]) == EXIT_OK
    assert (out / "report.txt").read_bytes() == first
    assert main(["report", "--runs", str(out), "--format", "delimited-values"]) == EXIT_OK


def test_report_empty_dir_exits_corpus_code(tmp_path):
    assert main(["report", "--runs", str(tmp_path), "--format", "table-text"]) == EXIT_CORPUS


@pytest.mark.parametrize("layout", ["no run files", "run files without runs"])
def test_report_without_runs_exits_corpus_code_and_names_runs(tmp_path, capsys, layout):
    from graphqa.evaluation import save_run_records

    if layout == "run files without runs":
        save_run_records(str(tmp_path / "m.runs.jsonl"), "m", [])
    assert main(["report", "--runs", str(tmp_path), "--format", "table-text"]) == EXIT_CORPUS
    assert capsys.readouterr().err.startswith(f"error: --runs {tmp_path}: ")
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("layout", ["missing directory", "run file is a directory"])
def test_report_unreadable_runs_exit_config_code(tmp_path, capsys, layout):
    runs = tmp_path / "runs"
    if layout == "run file is a directory":
        (runs / "m.runs.jsonl").mkdir(parents=True)
    assert main(["report", "--runs", str(runs), "--format", "table-text"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot read run records in {runs}: ")


NOT_UTF8_INPUTS = {
    # input: (where the file goes, argv given the file's path, the exit code of that file's format errors)
    "ask --data": ("d.jsonl", lambda p: ["ask", TOWER_QUESTION, "--data", p, "--replay", data_path("transcripts")], EXIT_ENGINE),
    "ask --replay": ("m.jsonl", lambda p: ["ask", TOWER_QUESTION, "--replay", p, "--model-task1", "m"], EXIT_GATEWAY),
    "eval --corpus": ("c.json", lambda p: ["eval", "--corpus", p, "--models", "m", "--out", p + ".out"], EXIT_CORPUS),
    "report --runs": ("runs/m.runs.jsonl", lambda p: ["report", "--runs", os.path.dirname(p)], EXIT_CORPUS),
    "gen-data --config": ("g.json", lambda p: ["gen-data", "--config", p, "--out", p + ".out"], EXIT_CONFIG),
    "ask --templates": (
        "templates/task1.txt",
        lambda p: ["ask", TOWER_QUESTION, "--templates", os.path.dirname(p), "--replay", data_path("transcripts")],
        EXIT_CONFIG,
    ),
}


@pytest.mark.parametrize("name, argv, code", NOT_UTF8_INPUTS.values(), ids=NOT_UTF8_INPUTS)
def test_an_input_file_that_is_not_utf8_gives_one_error_line_naming_it(tmp_path, capsys, name, argv, code):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"\xff\n")
    assert main(argv(str(path))) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(path) in line and "can't decode byte 0xff" in line


@pytest.mark.parametrize("command", ["gen-data", "report", "eval", "eval runs"])
def test_an_unwritable_out_exits_config_code_and_names_it(tmp_path, capsys, command):
    replay = ["--replay", data_path("transcripts")]
    if command.startswith("eval"):
        out = tmp_path / "taken"
        if command == "eval":  # --out names a file, not a directory
            out.write_text("")
        else:  # the runs file's path is a directory
            (out / "llama3.1_8b.runs.jsonl").mkdir(parents=True)
        argv = ["eval", "--models", "llama3.1:8b", "--originals-only", "--out", str(out), *replay]
    else:
        out = tmp_path / "missing" / "out.txt"
        argv = ["gen-data", "--out", str(out)]
        if command == "report":
            runs = tmp_path / "runs"
            assert main(["eval", "--models", "llama3.1:8b", "--originals-only", "--out", str(runs), *replay]) == EXIT_OK
            capsys.readouterr()
            argv = ["report", "--runs", str(runs), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write") and str(out) in line
    assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".part")]


@pytest.mark.parametrize(
    "field, value",
    [("expected_values", [13]), ("question", 5), ("rephrasings", "abc"), ("id", None), ("is_trick", 0)],
)
def test_eval_wrongly_typed_corpus_field_exits_corpus_code(tmp_path, capsys, field, value):
    corpus = json.loads(Path(data_path("corpus.json")).read_text(encoding="utf-8"))
    corpus["questions"][2][field] = value
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    args = ["eval", "--corpus", str(path), "--models", "llama3.1:8b", "--out", str(tmp_path / "out")]
    assert main([*args, "--replay", data_path("transcripts")]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert f"corpus {path}: question #2 malformed: field {field!r} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("questions", [5, {"a": 1}])
def test_eval_corpus_questions_not_a_list_exits_corpus_code(tmp_path, capsys, questions):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema_version": "1", "questions": questions}))
    args = ["eval", "--corpus", str(path), "--models", "llama3.1:8b", "--out", str(tmp_path / "out")]
    assert main([*args, "--replay", data_path("transcripts")]) == EXIT_CORPUS
    assert f"corpus {path}: questions must be a list" in capsys.readouterr().err


def test_eval_repeated_question_id_exits_corpus_code(tmp_path, capsys):
    corpus = json.loads(Path(data_path("corpus.json")).read_text(encoding="utf-8"))
    again = {**corpus["questions"][3], "question": "Where is tower 4?", "rephrasings": []}
    assert again["id"] == "location-tower-4"
    corpus["questions"].append(again)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    args = ["eval", "--corpus", str(path), "--models", "llama3.1:8b", "--out", str(tmp_path / "out")]
    assert main([*args, "--replay", data_path("transcripts"), "--originals-only"]) == EXIT_CORPUS
    assert f"corpus {path}: question #7 repeats id 'location-tower-4'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "models", ["llama3.1:8b,llama3.1:8b", "llama3.1:8b,llama3.1_8b", "gemma2:2b,llama3.1:8b,gemma2:2b"]
)
def test_eval_models_sharing_a_runs_file_exit_config_code(tmp_path, capsys, models):
    out = tmp_path / "out"
    args = ["eval", "--models", models, "--out", str(out), "--replay", data_path("transcripts"), "--originals-only"]
    assert main(args) == EXIT_CONFIG
    first, *_, last = models.split(",")
    runs_name = first.replace(":", "_") + ".runs.jsonl"
    assert f"--models names {first!r} and {last!r}, which would both write {runs_name}" in capsys.readouterr().err
    assert not out.exists()


def test_report_malformed_run_record_exits_corpus_code(tmp_path, capsys):
    out = tmp_path / "out"
    main(["eval", "--models", "llama3.1:8b", "--out", str(out), "--replay", data_path("transcripts"), "--originals-only"])
    runs = out / "llama3.1_8b.runs.jsonl"
    lines = runs.read_text().splitlines()
    runs.write_text("\n".join([*lines[:2], "[1, 2]", *lines[3:]]) + "\n")
    assert main(["report", "--runs", str(out), "--format", "table-text"]) == EXIT_CORPUS
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "repeat, first_file",
    [
        ("copied-file", "copy.runs.jsonl"),
        ("one-copied-line", "copy.runs.jsonl"),
        ("repeated-line", "llama3.1_8b.runs.jsonl"),
    ],
)
def test_report_run_counted_twice_exits_corpus_code(tmp_path, capsys, repeat, first_file):
    # The copy's name sorts first, so the original file holds the repeat.
    out = tmp_path / "out"
    argv = ["eval", "--models", "llama3.1:8b", "--out", str(out), "--replay", data_path("transcripts"), "--originals-only"]
    assert main(argv) == EXIT_OK
    runs = out / "llama3.1_8b.runs.jsonl"
    header, first, *rest = runs.read_text().splitlines()
    if repeat == "copied-file":
        (out / "copy.runs.jsonl").write_text(runs.read_text())
    elif repeat == "one-copied-line":
        (out / "copy.runs.jsonl").write_text(f"{header}\n{first}\n")
    else:
        runs.write_text("\n".join([header, first, *rest, first]) + "\n")
    question_id = json.loads(first)["question_id"]
    (out / "report.txt").unlink()
    capsys.readouterr()
    assert main(["report", "--runs", str(out)]) == EXIT_CORPUS
    assert capsys.readouterr().err.splitlines() == [
        f"error: llama3.1_8b.runs.jsonl repeats the run of 'llama3.1:8b' on {question_id!r} variant 0, "
        f"already in {first_file}"
    ]
    assert not (out / "report.txt").exists()


def test_report_wrongly_typed_grade_exits_corpus_code(tmp_path, capsys):
    out = tmp_path / "out"
    main(["eval", "--models", "llama3.1:8b", "--out", str(out), "--replay", data_path("transcripts"), "--originals-only"])
    runs = out / "llama3.1_8b.runs.jsonl"
    header, first, *rest = runs.read_text().splitlines()
    record = json.loads(first)
    record["grades"]["em"] = str(record["grades"]["em"])
    runs.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
    assert main(["report", "--runs", str(out), "--format", "table-text"]) == EXIT_CORPUS
    assert "line 2" in capsys.readouterr().err


def test_report_out_of_range_grade_exits_corpus_code(tmp_path, capsys):
    # Grades are 0/1 flags; a 2 would push a score past 100%.
    out = tmp_path / "out"
    main(["eval", "--models", "llama3.1:8b", "--out", str(out), "--replay", data_path("transcripts"), "--originals-only"])
    runs = out / "llama3.1_8b.runs.jsonl"
    header, first, *rest = runs.read_text().splitlines()
    record = json.loads(first)
    record["grades"].update(em=2, content=2, output_correct=2)
    runs.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
    assert main(["report", "--runs", str(out), "--format", "table-text"]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert "llama3.1_8b.runs.jsonl line 2" in err and "must be 0 or 1" in err


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "graphqa.cli", "gen-data", "--out", os.devnull],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0


def test_cli_import_leaves_the_http_stack_unloaded():
    # Only a live completion needs http.client, email and ssl.
    code = (
        "import sys, graphqa.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('http', 'email', 'ssl')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_the_evaluation_harness_unloaded():
    # Only eval and report grade runs; ask must not pay for importing that code.
    code = "import sys, graphqa.cli; print('graphqa.evaluation' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_ask_loads_neither_dataclasses_nor_the_generator_nor_the_harness():
    # Start-up cost: dataclasses pulls in inspect, dis, ast and tokenize.
    code = (
        "import sys, graphqa.cli; "
        f"code = graphqa.cli.main(['ask', {TOWER_QUESTION!r}, '--replay', graphqa.cli.data_path('transcripts')]); "
        "print(code, sorted(m for m in sys.modules if m in "
        "('dataclasses', 'inspect', 'graphqa.graph.fixture', 'graphqa.evaluation')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [TOWER_ANSWER, "0 []"]


@pytest.mark.parametrize("command", ["eval", "report", "gen-data"])
def test_eval_report_and_gen_data_load_neither_dataclasses_nor_inspect(tmp_path, command):
    # Every record is a named tuple, so no command pays for dataclasses.
    runs = tmp_path / "runs"
    eval_argv = ["eval", "--models", "llama3.1:8b", "--originals-only", "--out", str(runs), "--replay", data_path("transcripts")]
    argv = {
        "eval": eval_argv,
        "report": ["report", "--runs", str(runs)],
        "gen-data": ["gen-data", "--out", str(tmp_path / "data.jsonl")],
    }[command]
    if command == "report":
        assert main(eval_argv) == EXIT_OK
    code = (
        "import sys, graphqa.cli; "
        f"code = graphqa.cli.main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def test_cli_import_leaves_importlib_resources_unloaded():
    # -S keeps site-packages' .pth files from importing it first.
    code = "import sys, graphqa.cli; print('importlib.resources' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_package_import_leaves_the_pipeline_unloaded():
    # The package exports only data_path and __version__; the workflow and
    # the engine load when a caller imports their modules.
    code = "import sys, graphqa; print('graphqa.pipeline' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
