"""The records a run, its grades, its scores and its inputs travel in are
named tuples: read-only, equal only to a record of their own class, and each
one writing and checking its own JSON form."""

import json
from types import MappingProxyType

import pytest

from graphqa.errors import CorpusError
from graphqa.evaluation import QuestionSpec, load_corpus, load_run_records, save_run_records
from graphqa.evaluation.harness import RunRecord
from graphqa.evaluation.scoring import MetricsReport, ModelScores, RunGrades
from graphqa.graph import GeneratorConfig
from graphqa.pipeline import OutcomeCase, PipelineConfig, PipelineRun

RUN = PipelineRun(
    question="How many sensors are on tower 8?",
    model_task1="m",
    model_task2="m",
    task1_prompt="p1",
    task1_response="r1",
    extracted_query="MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s) RETURN count(s)",
    extraction_method="whole-text",
    engine_error=None,
    db_output="[<Record count(s)=9>]",
    outcome=OutcomeCase.CONTENT,
    task2_prompt="p2",
    answer="Tower 8 has 9 sensors.",
    durations={"task1_s": 0.5, "execute_s": 0.25, "task2_s": 0.125},
)
GRADES = RunGrades(em=1, content=1, content_length=21, misinformation=0, output_correct=1, absolute_correct=1)
RECORD = RunRecord(
    question_id="sensor-count", variant=0, is_trick=False, original_question=RUN.question, run=RUN, grades=GRADES
)
SCORES = ModelScores(
    n=1, em_score=100.0, content_score=100.0, output_score=100.0, misinformation_score=0.0,
    absolute_score=100.0, absolute_em_only=100.0,
)
RECORDS = [
    RUN,
    PipelineConfig(model_task1="m", templates={}),
    GRADES,
    RECORD,
    SCORES,
    MetricsReport(scores={"m": SCORES}, lengths=(("m", RUN.question, 21),)),
    QuestionSpec(id="q", question="q?", ground_truth_query="MATCH (n) RETURN n"),
    GeneratorConfig(),
]
# The values a default may be: none of them can be changed in place.
IMMUTABLE = (str, int, float, bool, type(None), tuple, frozenset, MappingProxyType)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_equals_only_its_own_class(record):
    assert record == type(record)(*record)
    assert record != tuple(record) and tuple(record) != record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("cls", sorted({type(record) for record in RECORDS}, key=lambda cls: cls.__name__))
def test_defaults_share_no_mutable_container(cls):
    for name, default in cls._field_defaults.items():
        assert isinstance(default, IMMUTABLE), (name, default)


def test_default_durations_are_read_only_and_saved_as_an_object():
    run = RUN._replace(durations=PipelineRun._field_defaults["durations"])
    with pytest.raises(TypeError):
        run.durations["task1_s"] = 1.0
    assert type(run.to_dict()["durations"]) is dict
    assert PipelineRun.from_dict(run.to_dict()) == run


def test_metrics_report_equality_reads_the_scores_and_the_lengths():
    report = MetricsReport(scores={"m": SCORES}, lengths=(("m", RUN.question, 21),))
    assert report == MetricsReport(scores={"m": SCORES}, lengths=(("m", RUN.question, 21),))
    assert report != report._replace(lengths=(("m", RUN.question, None),))
    assert report != report._replace(scores={"m": SCORES._replace(n=2)})


def test_run_and_record_round_trip_through_their_json_form():
    assert PipelineRun.from_dict(RUN.to_dict()) == RUN
    assert RunRecord.from_dict(json.loads(json.dumps(RECORD.to_dict()))) == RECORD
    assert RunGrades.from_dict(GRADES.to_dict()) == GRADES


def _with(data, part, name, value):
    (data[part] if part else data)[name] = value
    return data


@pytest.mark.parametrize(
    "part, name, value, message",
    [
        ("run", "answer", 5, "run field 'answer' has the wrong type int"),
        ("run", "durations", [], "run field 'durations' has the wrong type list"),
        ("grades", "em", "1", "grades field 'em' has the wrong type str"),
        ("grades", "content_length", 4.5, "grades field 'content_length' has the wrong type float"),
        (None, "variant", True, "record field 'variant' has the wrong type bool"),
        (None, "reason", None, "record field 'reason' has the wrong type NoneType"),
    ],
)
def test_mistyped_field_names_its_record_and_type(tmp_path, part, name, value, message):
    path = tmp_path / "m.runs.jsonl"
    save_run_records(str(path), "m", [RECORD])
    header, line = path.read_text().splitlines()
    path.write_text(header + "\n" + json.dumps(_with(json.loads(line), part, name, value)) + "\n")
    with pytest.raises(CorpusError) as caught:
        load_run_records(str(path))
    assert str(caught.value) == f"run record file {path} line 2: TypeError: {message}"


@pytest.mark.parametrize("part", ["run", "grades", None])
def test_unknown_field_is_rejected_at_every_level(tmp_path, part):
    path = tmp_path / "m.runs.jsonl"
    save_run_records(str(path), "m", [RECORD])
    header, line = path.read_text().splitlines()
    path.write_text(header + "\n" + json.dumps(_with(json.loads(line), part, "extra", "")) + "\n")
    with pytest.raises(CorpusError, match="line 2: TypeError: .*unexpected keyword argument 'extra'"):
        load_run_records(str(path))


def test_corpus_entry_without_optional_fields_takes_the_defaults(tmp_path):
    path = tmp_path / "corpus.json"
    entry = {"id": "q", "question": "q?", "ground_truth_query": "MATCH (n) RETURN n"}
    path.write_text(json.dumps({"schema_version": "1", "questions": [entry]}))
    assert load_corpus(str(path)) == [QuestionSpec(**entry)]


def test_generator_config_overrides_make_a_new_config():
    config = GeneratorConfig.from_dict({"seed": 7})
    assert config == GeneratorConfig(seed=7)
    assert config._replace(tower_count=20) == GeneratorConfig(tower_count=20, seed=7)
    assert config.tower_count == 13
