import pytest

from graphqa.cypher import serialize_records
from graphqa.cypher.records import ResultSet
from graphqa.errors import ValidationError
from graphqa.evaluation import QuestionSpec, compute_metrics
from graphqa.evaluation import scoring
from graphqa.evaluation.harness import RunRecord
from graphqa.evaluation.scoring import RunGrades, grade_answer, grade_run, score_em
from graphqa.graph.store import Node
from graphqa.matching import find_numbers, find_output_text_values
from graphqa.pipeline import NAN_SENTINEL, OutcomeCase, PipelineRun, classify_db_outcome

TOWER_QUERY = "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"
TOWER_RECORD = "[<Record Lat=32.58088351 Long=-106.7533307>]"

LOCATION_SPEC = QuestionSpec(
    id="location-tower-4",
    question="What is the location of tower 4?",
    ground_truth_query=TOWER_QUERY,
    expected_values=["32.58088351", "-106.7533307"],
)
TRICK_SPEC = QuestionSpec(
    id="sensors-tower-22",
    question="What sensors are attached to tower 22?",
    ground_truth_query="MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name AS Name",
    expected_values=[],
    is_trick=True,
)


def test_score_em_ignores_whitespace_and_semicolon():
    assert score_em("MATCH  (t:Tower {Tower: 4})\n RETURN t.Lat AS Lat, t.Long AS Long ;", TOWER_QUERY) == 1
    assert score_em(TOWER_QUERY, TOWER_QUERY) == 1


def test_score_em_zero_for_different_query():
    assert score_em("MATCH (t:Tower {Tower: 4}) RETURN t", TOWER_QUERY) == 0
    assert score_em(None, TOWER_QUERY) == 0
    # Case matters: identifiers and keys are case-sensitive.
    assert score_em(TOWER_QUERY.replace("Lat", "lat"), TOWER_QUERY) == 0


def _content(db_output, expected_values, is_trick=False):
    spec = QuestionSpec(
        id="c", question="q", ground_truth_query="g", expected_values=expected_values, is_trick=is_trick
    )
    return grade_run(_run(db_output=db_output, spec=spec), spec)[0].content


def test_score_content_substring_over_canonical_renderings():
    assert _content(TOWER_RECORD, LOCATION_SPEC.expected_values) == 1
    assert _content("[]", LOCATION_SPEC.expected_values) == 0
    assert _content(NAN_SENTINEL, LOCATION_SPEC.expected_values) == 0
    bigger = "[<Record t=<Node id=4 labels=frozenset({'Tower'}) properties={'Lat': 32.58088351, 'Long': -106.7533307}>>]"
    assert _content(bigger, LOCATION_SPEC.expected_values) == 1


def test_score_content_respects_token_boundaries():
    assert _content("[<Record c=9>]", ["9"]) == 1
    assert _content("[<Record c=19>]", ["9"]) == 0
    assert _content("[<Record c=32.9>]", ["9"]) == 0
    assert _content("[<Record n='Temp-T08-extra'>]", ["Temp-T08"]) == 0
    assert _content("[<Record n='Temp-T08'>]", ["Temp-T08"]) == 1


def test_score_content_trick_wants_empty_list():
    assert _content("[]", [], is_trick=True) == 1
    assert _content("[<Record n=1>]", [], is_trick=True) == 0
    assert _content(NAN_SENTINEL, [], is_trick=True) == 0


def test_content_length_values():
    # Recorded for content-correct output only: its character count.
    for db_output, length in [(TOWER_RECORD, 44), ("[<Record Lat=1.0>]", None), ("nan", None)]:
        grades, _ = grade_run(_run(db_output=db_output), LOCATION_SPEC)
        assert grades.content_length == length


def test_grade_answer_content_tolerates_units_and_case():
    answer = "The location of Tower 4 is at 32.58088351° latitude and -106.7533307° longitude."
    grade, reason = grade_answer(answer, LOCATION_SPEC, OutcomeCase.CONTENT, TOWER_RECORD)
    assert grade == 1, reason
    names_spec = QuestionSpec(
        id="s0", question="q", ground_truth_query="g", expected_values=["Temperature-T00", "Humidity-T00"]
    )
    grade, _ = grade_answer(
        "tower 0 has sensors temperature-t00 and humidity-t00.", names_spec, OutcomeCase.CONTENT, ""
    )
    assert grade == 1
    grade, _ = grade_answer("tower 0 has a temperature sensor.", names_spec, OutcomeCase.CONTENT, "")
    assert grade == 0


def test_content_grade_scans_the_answer_for_numbers_at_most_once(monkeypatch):
    # Both expected values are numbers; the answer is scanned once for both,
    # and not at all when no expected value is a number.
    scans = []

    def counting(text):
        scans.append(text)
        return find_numbers(text)

    monkeypatch.setattr(scoring, "find_numbers", counting)
    answer = "Tower 4 stands at 32.58088351, -106.7533307."
    assert grade_answer(answer, LOCATION_SPEC, OutcomeCase.CONTENT, TOWER_RECORD) == (
        1,
        "all expected values present in answer",
    )
    assert scans == [answer]
    names_spec = LOCATION_SPEC._replace(expected_values=["Temperature-T00", "Humidity-T00"])
    assert grade_answer("temperature-t00 and humidity-t00", names_spec, OutcomeCase.CONTENT, "")[0] == 1
    assert scans == [answer]


def test_grade_answer_numeric_tolerance():
    spec = QuestionSpec(id="x", question="q", ground_truth_query="g", expected_values=["32.58088351"])
    grade, _ = grade_answer("The value is 32.580883510000004.", spec, OutcomeCase.CONTENT, "")
    assert grade == 1
    grade, _ = grade_answer("The value is 32.59.", spec, OutcomeCase.CONTENT, "")
    assert grade == 0


def test_grade_answer_trick_nonexistence_lexicon():
    grade, _ = grade_answer("Tower 22 does not exist.", TRICK_SPEC, OutcomeCase.EMPTY_LIST, "[]")
    assert grade == 1
    grade, _ = grade_answer("There is no tower 22 in the database.", TRICK_SPEC, OutcomeCase.EMPTY_LIST, "[]")
    assert grade == 1
    grade, _ = grade_answer(
        "Tower 22 has temperature and humidity sensors.", TRICK_SPEC, OutcomeCase.EMPTY_LIST, "[]"
    )
    assert grade == 0


def test_grade_answer_failure_outcomes():
    # Hedged answers are correct behavior for failed/wrong inputs.
    for outcome in (OutcomeCase.NAN, OutcomeCase.EMPTY_LIST, OutcomeCase.WRONG_CONTENT):
        grade, _ = grade_answer(
            "I could not retrieve the requested information.", LOCATION_SPEC, outcome, NAN_SENTINEL
        )
        assert grade == 1
    # Confidently asserting mismatched numbers is wrong.
    wrong_output = "[<Record Lat=33.1 Long=-105.2>]"
    grade, reason = grade_answer(
        "The location of Tower 4 is at 33.1° latitude and -105.2° longitude.",
        LOCATION_SPEC,
        OutcomeCase.WRONG_CONTENT,
        wrong_output,
    )
    assert grade == 0 and "asserts" in reason
    # Propagating wrong text values from the output is wrong too.
    names_spec = QuestionSpec(
        id="s0", question="q", ground_truth_query="g", expected_values=["Temperature-T00"]
    )
    grade, _ = grade_answer(
        "The sensors are Temperature-T08 and Humidity-T08.",
        names_spec,
        OutcomeCase.WRONG_CONTENT,
        "[<Record n='Temperature-T08'>, <Record n='Humidity-T08'>]",
    )
    assert grade == 0
    grade, _ = grade_answer(None, LOCATION_SPEC, OutcomeCase.NAN, NAN_SENTINEL)
    assert grade == 0


# Values ``repr`` writes in double quotes (an apostrophe) or with escapes.
REPR_QUOTED = ["O'Brien", 'a\'b"c', "back\\slash", "tab\there", "zero\x00width\u200b", "caf\u00e9", "\U0001F600"]


@pytest.mark.parametrize("value", REPR_QUOTED + ["Temperature-T08", 'say "hi"'])
def test_output_text_values_read_what_repr_wrote(value):
    cell = serialize_records(ResultSet(columns=["n"], rows=[(value,)]))
    node = serialize_records(ResultSet(columns=["s"], rows=[(Node(0, frozenset({"Sensor"}), {"Name": value}),)]))
    assert find_output_text_values(cell) == [value]
    assert find_output_text_values(node) == [value]


def test_grade_answer_sees_a_wrong_value_written_in_double_quotes_or_escaped():
    names_spec = QuestionSpec(id="s0", question="q", ground_truth_query="g", expected_values=["Temperature-T00"])
    grade, reason = grade_answer(
        "The sensor is O'Brien.", names_spec, OutcomeCase.WRONG_CONTENT, "[<Record n=\"O'Brien\">]"
    )
    assert (grade, reason) == (0, "asserts unexpected value \"O'Brien\" from the database output")
    value = 'a\'b"c'
    grade, reason = grade_answer(
        f"The sensor is {value}.", names_spec, OutcomeCase.WRONG_CONTENT, f"[<Record n={value!r}>]"
    )
    assert (grade, reason) == (0, f"asserts unexpected value {value!r} from the database output")


def _grades(em=0, content=0, length=None, misinfo=0, output=0, absolute=0):
    return RunGrades(
        em=em,
        content=content,
        content_length=length,
        misinformation=misinfo,
        output_correct=output,
        absolute_correct=absolute,
    )


def test_rungrades_invariants_enforced():
    _grades(em=1, content=1, output=1, absolute=1).validate()
    with pytest.raises(ValidationError):
        _grades(em=1, content=0).validate()
    with pytest.raises(ValidationError):
        _grades(content=1, misinfo=1).validate()
    with pytest.raises(ValidationError):
        _grades(absolute=1, output=0).validate()
    with pytest.raises(ValidationError):
        _grades(absolute=1, output=1, content=0).validate()


def test_rungrades_range_enforced():
    for grades in (_grades(em=2), _grades(content=-1), _grades(misinfo=2), _grades(output=2), _grades(absolute=-1)):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            grades.validate()
    _grades(content=1, length=0).validate()
    with pytest.raises(ValidationError, match="content_length"):
        _grades(length=-1).validate()


def test_score_misinformation_percentage():
    records = [_record(_grades(misinfo=1))] * 4 + [_record(_grades())] * 73
    assert compute_metrics(records).scores["m"].misinformation_score == pytest.approx(100.0 * 4 / 77)


def _run(model="m", question="q", db_output="[]", spec=LOCATION_SPEC):
    # The outcome the pipeline records when answering with the spec's values.
    return PipelineRun(
        question=question,
        model_task1=model,
        model_task2=model,
        task1_prompt="p1",
        task1_response="r1",
        extracted_query="MATCH (n) RETURN n",
        extraction_method="whole-text",
        engine_error=None,
        db_output=db_output,
        outcome=classify_db_outcome(db_output, spec.expected_values),
        task2_prompt="p2",
        answer="a",
    )


def _record(grades, model="m", variant=0):
    spec = LOCATION_SPEC
    question = spec.question if variant == 0 else f"{spec.question} ({variant})"
    return RunRecord(spec.id, variant, spec.is_trick, spec.question, _run(model, question), grades)


def test_compute_metrics_hand_checked():
    records = [
        _record(_grades(em=1, content=1, length=44, output=1, absolute=1)),
        _record(_grades(content=1, length=100, output=1, absolute=1), variant=1),
        _record(_grades(misinfo=1, output=0), variant=2),
        _record(_grades(output=1), variant=3),
    ]
    report = compute_metrics(records)
    scores = report.scores["m"]
    assert scores.n == 4
    assert scores.em_score == pytest.approx(25.0)
    assert scores.content_score == pytest.approx(50.0)
    assert scores.output_score == pytest.approx(75.0)
    assert scores.absolute_score == pytest.approx(50.0)
    assert scores.misinformation_score == pytest.approx(25.0)
    assert scores.absolute_em_only == pytest.approx(25.0)
    assert report.lengths == (("m", LOCATION_SPEC.question, 44),)  # originals only


def test_compute_metrics_single_all_correct_run():
    records = [_record(_grades(em=1, content=1, length=44, output=1, absolute=1))]
    scores = compute_metrics(records).scores["m"]
    assert (
        scores.em_score,
        scores.content_score,
        scores.output_score,
        scores.absolute_score,
    ) == (100.0, 100.0, 100.0, 100.0)
    assert scores.misinformation_score == 0.0


def test_compute_metrics_rejects_empty():
    with pytest.raises(ValidationError):
        compute_metrics([])


def test_compute_metrics_groups_by_model():
    records = [_record(_grades(output=1), model="m1"), _record(_grades(), model="m2")]
    report = compute_metrics(records)
    assert set(report.scores) == {"m1", "m2"}
    assert report.scores["m1"].output_score == 100.0
    assert report.scores["m2"].output_score == 0.0
    assert [model for model, _, _ in report.lengths] == ["m1", "m2"]
