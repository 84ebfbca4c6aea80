import pytest

from graphqa.cypher.parser import _MAX_DEPTH
from graphqa.errors import TemplateError
from graphqa.graph.store import schema_description
from graphqa.llm import Gateway, ReplayBackend, Transcript, TranscriptEntry
from graphqa.pipeline import (
    DEFAULT_EXAMPLE_RELATIONSHIP,
    NAN_SENTINEL,
    OutcomeCase,
    PipelineConfig,
    PipelineRun,
    PromptTemplate,
    answer_question,
    build_task1_prompt,
    build_task2_prompt,
    classify_db_outcome,
    run_query,
    run_stage1,
)

TOWER_QUESTION = "What is the location of tower 4?"
TOWER_QUERY = "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"
TOWER_RECORD = "[<Record Lat=32.58088351 Long=-106.7533307>]"
TOWER_ANSWER = "The location of Tower 4 is at 32.58088351° latitude and -106.7533307° longitude."


def test_task1_prompt_contains_question_schema_and_example(fixture_graph, templates):
    prompt = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    assert TOWER_QUESTION in prompt
    assert "(:Tower)-[:HAS_SENSOR]->(:Sensor)" in prompt  # schema text
    assert DEFAULT_EXAMPLE_RELATIONSHIP in prompt
    assert prompt == build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])


def test_task2_prompt_embeds_db_output_verbatim(templates):
    for output in (TOWER_RECORD, "[]", NAN_SENTINEL):
        prompt = build_task2_prompt(TOWER_QUESTION, output, templates["task2"])
        assert output in prompt
        assert TOWER_QUESTION in prompt


def test_template_missing_placeholder_rejected():
    with pytest.raises(TemplateError):
        PromptTemplate("task1", "Question: {question}\nExample: {example}")  # no {schema}
    with pytest.raises(TemplateError):
        PromptTemplate("task2", "{question}")  # no {db_output}
    with pytest.raises(TemplateError, match="unknown template id 'task3'"):
        PromptTemplate("task3", "{question}")


def test_template_render_leaves_literal_braces_alone():
    template = PromptTemplate("task2", "Q: {question}\nOut: {db_output}\nLiteral {Tower: 8} {schema} stays.")
    rendered = template.render(question="q", db_output="[]")
    assert rendered == "Q: q\nOut: []\nLiteral {Tower: 8} {schema} stays."
    # Markers inside values are text, not placeholders.
    rendered = template.render(question="{db_output}", db_output="{question}")
    assert rendered == "Q: {db_output}\nOut: {question}\nLiteral {Tower: 8} {schema} stays."
    # A marker that occurs twice is filled twice.
    assert PromptTemplate("task2", "{question}/{db_output}/{question}").render(question="q", db_output="o") == "q/o/q"
    with pytest.raises(TemplateError):
        template.render(question="q")  # unbound placeholder
    with pytest.raises(TemplateError):
        template.render(question="q", db_output="[]", bogus="x")


def test_schema_marker_in_question_stays_literal(fixture_graph, templates):
    question = "What does {schema} list for tower 4?"
    prompt = build_task1_prompt(question, fixture_graph, templates["task1"])
    assert question in prompt
    assert prompt.count(schema_description(fixture_graph)) == 1


def test_db_output_marker_in_question_stays_literal(templates):
    question = "Is {db_output} the location of tower 4?"
    prompt = build_task2_prompt(question, TOWER_RECORD, templates["task2"])
    assert question in prompt
    assert prompt.count(TOWER_RECORD) == 1


def test_question_marker_in_question_yields_a_run(fixture_graph, templates):
    question = "What is {question} for tower 4?"
    run = answer_question(question, fixture_graph, _replay_gateway("test-model", []), _config(templates))
    assert isinstance(run, PipelineRun)
    assert question in run.task1_prompt and question in run.task2_prompt
    assert run.failure.startswith("task1:")  # empty transcript: a replay miss


@pytest.mark.parametrize("marker", ["{question}", "{db_output}"])
def test_marker_in_db_output_reaches_task2_verbatim(fixture_graph, templates, marker):
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    response1 = f"MATCH (t:Tower {{Tower: 4}}) RETURN '{marker}' AS x"
    gateway = _replay_gateway("test-model", [(prompt1, response1)])
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, _config(templates))
    assert marker in run.db_output
    assert run.task2_prompt.count(run.db_output) == 1
    assert run.failure.startswith("task2:")  # only stage 1 was recorded


def test_classify_db_outcome_cases():
    expected = ["32.58088351", "-106.7533307"]
    assert classify_db_outcome(TOWER_RECORD, expected) is OutcomeCase.CONTENT
    assert classify_db_outcome("[]", expected) is OutcomeCase.EMPTY_LIST
    assert classify_db_outcome(NAN_SENTINEL, expected) is OutcomeCase.NAN
    wrong = "[<Record Lat=33.0 Long=-100.0>]"
    assert classify_db_outcome(wrong, expected) is OutcomeCase.WRONG_CONTENT
    # Trick/ad-hoc questions have no expected values: non-empty output counts
    # as content vacuously, the empty list is its own case.
    assert classify_db_outcome(wrong, []) is OutcomeCase.CONTENT
    assert classify_db_outcome("[]", []) is OutcomeCase.EMPTY_LIST


def test_classify_is_total_and_exclusive():
    outputs = [NAN_SENTINEL, "[]", TOWER_RECORD, "[<Record x=1>]", ""]
    expecteds = [[], ["32.58088351"], ["nope"]]
    for output in outputs:
        for expected in expecteds:
            outcome = classify_db_outcome(output, expected)
            assert isinstance(outcome, OutcomeCase)


def _replay_gateway(model, entries):
    transcript = Transcript([TranscriptEntry(model, p, r) for p, r in entries])
    return Gateway(ReplayBackend(transcript))


def _config(templates, model="test-model"):
    return PipelineConfig(model_task1=model, templates=templates)


def test_answer_question_end_to_end(fixture_graph, templates):
    config = _config(templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(TOWER_QUESTION, TOWER_RECORD, templates["task2"])
    gateway = _replay_gateway(
        "test-model", [(prompt1, f"```cypher\n{TOWER_QUERY}\n```"), (prompt2, TOWER_ANSWER)]
    )
    run = answer_question(
        TOWER_QUESTION, fixture_graph, gateway, config,
        expected_values=["32.58088351", "-106.7533307"],
    )
    assert run.extracted_query == TOWER_QUERY
    assert run.extraction_method == "fenced-block"
    assert run.db_output == TOWER_RECORD
    assert run.outcome is OutcomeCase.CONTENT
    assert "32.58088351" in run.answer and "-106.7533307" in run.answer
    assert run.failure is None
    assert gateway.calls == 2  # exactly two completions per question
    assert set(run.durations) == {"task1_s", "execute_s", "task2_s"}


@pytest.mark.parametrize("recorded, count", [("both", 2), ("task1", 1), ("task2", 1), ("none", 0)])
def test_a_runs_calls_are_the_calls_that_got_a_response_task1_first(fixture_graph, templates, recorded, count):
    # Without its task-1 reply, a run's task-2 prompt carries the failure sentinel.
    db_output = NAN_SENTINEL if recorded == "task2" else TOWER_RECORD
    calls = {
        "task1": TranscriptEntry("test-model", build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"]), TOWER_QUERY),
        "task2": TranscriptEntry("test-model", build_task2_prompt(TOWER_QUESTION, db_output, templates["task2"]), TOWER_ANSWER),
    }
    kept = [calls[stage] for stage in calls if recorded in (stage, "both")]
    gateway = _replay_gateway("test-model", [(call.prompt, call.response) for call in kept])
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, _config(templates))
    assert len(kept) == count
    assert run.calls() == kept


def test_run_query_gives_the_records_or_the_sentinel_and_the_reason(fixture_graph):
    assert run_query(fixture_graph, TOWER_QUERY) == (TOWER_RECORD, None)
    assert run_query(fixture_graph, "MATCH (t:Tower {Tower: 99}) RETURN t") == ("[]", None)
    assert run_query(fixture_graph, "MATCH (t:Tower) RETURN size(t)") == (
        NAN_SENTINEL,
        "semantic: unknown function size() (at offset 23)",
    )
    assert run_query(fixture_graph, "MATCH (t:Tower) WITH t RETURN t")[0] == NAN_SENTINEL


def test_failed_query_still_reaches_task2_with_nan(fixture_graph, templates):
    config = _config(templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(TOWER_QUESTION, NAN_SENTINEL, templates["task2"])
    gateway = _replay_gateway(
        "test-model",
        [(prompt1, "MATCH (t:Tower) WITH t RETURN t"), (prompt2, "I could not retrieve the data.")],
    )
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, config)
    assert run.db_output == NAN_SENTINEL
    assert run.outcome is OutcomeCase.NAN
    assert run.engine_error is not None and "WITH" in run.engine_error
    assert run.answer == "I could not retrieve the data."
    assert gateway.calls == 2


def test_map_valued_query_is_a_nan_outcome(fixture_graph, templates):
    config = _config(templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(TOWER_QUESTION, NAN_SENTINEL, templates["task2"])
    gateway = _replay_gateway(
        "test-model",
        [(prompt1, "MATCH (t:Tower {Tower: 4}) RETURN {lat: t.Lat}"), (prompt2, "I could not retrieve the data.")],
    )
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, config)
    assert run.outcome is OutcomeCase.NAN
    assert run.db_output == NAN_SENTINEL
    assert run.engine_error.startswith("runtime:")
    assert run.answer == "I could not retrieve the data."


@pytest.mark.parametrize(
    "query, reason",
    [
        ("RETURN ²", "lex: illegal character '²'"),
        ("RETURN 1²", "lex: illegal character '²'"),
        ("RETURN " + "9" * 5000, "parse: integer literal out of 64-bit range"),
        ("RETURN 99999999999999999999", "parse: integer literal out of 64-bit range"),
        ("RETURN 1e999 AS v", "parse: float literal out of range"),
        ("RETURN -1e999 AS v", "parse: float literal out of range"),
        ("MATCH (t:Tower {Lat: 1e999}) RETURN t.Tower", "parse: float literal out of range"),
        ("RETURN " + "9" * 400 + ".0", "parse: float literal out of range"),
    ],
    ids=[
        "superscript",
        "trailing-superscript",
        "5000-digits",
        "past-int64",
        "past-float",
        "negative-past-float",
        "past-float-in-map",
        "400-digit-float",
    ],
)
def test_unrepresentable_number_literal_is_a_nan_outcome(fixture_graph, query, reason):
    candidate, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert candidate.extracted_query == query
    assert db_output == NAN_SENTINEL
    assert engine_error.startswith(reason)


def _chain_of_chains(levels: int) -> str:
    # An AND chain of parenthesised OR chains; the first OR chain is long
    # enough that the tree's deepest path has ``levels`` non-leaf nodes.
    ands = levels // 2
    first = " OR ".join(f"t.Tower = {i}" for i in range(levels - ands + 1))
    return f"MATCH (t:Tower) WHERE ({first})" + " AND (t.Tower >= 0)" * (ands - 1) + " RETURN t.Tower"


# Each builder nests its shape ``levels`` deep; the map shape sits inside
# count() so that the result serializes.
DEPTH_SHAPES = {
    "parentheses": lambda levels: "MATCH (t:Tower {Tower: 4}) RETURN " + "(" * levels + "t.Tower" + ")" * levels,
    "unary-minus": lambda levels: "MATCH (t:Tower {Tower: 4}) RETURN " + "-" * levels + "t.Tower",
    "not": lambda levels: "MATCH (t:Tower {Tower: 4}) RETURN " + "NOT " * levels + "true",
    "maps": lambda levels: (
        "MATCH (t:Tower {Tower: 4}) RETURN count(" + "{k: " * (levels - 1) + "t.Tower" + "}" * (levels - 1) + ")"
    ),
    "or-chain": lambda levels: (
        "MATCH (t:Tower) WHERE " + " OR ".join(f"t.Tower = {i}" for i in range(levels)) + " RETURN t.Tower"
    ),
    "chain-of-chains": _chain_of_chains,
}


def _levels_for_length(build, length: int) -> int:
    levels = _MAX_DEPTH
    while len(build(levels)) < length:
        levels *= 2
    return levels


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_expression_at_the_depth_limit_runs(fixture_graph, shape):
    query = DEPTH_SHAPES[shape](_MAX_DEPTH)
    candidate, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert candidate.extracted_query == query
    assert engine_error is None
    assert db_output.startswith("[<Record ")


@pytest.mark.parametrize(
    "shape, levels",
    [(shape, _MAX_DEPTH + 1) for shape in DEPTH_SHAPES]
    + [("parentheses", 110), ("unary-minus", 3000), ("not", 3000), ("or-chain", 500)]
    + [(shape, "100k characters") for shape in DEPTH_SHAPES],
)
def test_expression_past_the_depth_limit_is_a_nan_outcome(fixture_graph, shape, levels):
    build = DEPTH_SHAPES[shape]
    if levels == "100k characters":
        levels = _levels_for_length(build, 100_000)
    query = build(levels)
    candidate, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert candidate.extracted_query == query
    assert db_output == NAN_SENTINEL
    assert engine_error == "parse: expression nested too deeply"


# Each builder writes ``patterns`` node patterns in all; the executor nests
# one generator per node pattern.
PATTERN_SHAPES = {
    "path": lambda patterns: "MATCH (t:Tower {Tower: 4})" + "--()" * (patterns - 1) + " RETURN count(*)",
    "comma-paths": lambda patterns: "MATCH " + ", ".join(["(t:Tower {Tower: 4})"] * patterns) + " RETURN count(*)",
    "match-clauses": lambda patterns: "MATCH (t:Tower {Tower: 4}) " * patterns + "RETURN count(*)",
}


@pytest.mark.parametrize("shape", PATTERN_SHAPES)
def test_pattern_at_the_length_limit_runs(fixture_graph, shape):
    query = PATTERN_SHAPES[shape](_MAX_DEPTH)
    _, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert engine_error is None
    assert db_output.startswith("[<Record ")


@pytest.mark.parametrize("shape, patterns", [(shape, n) for shape in PATTERN_SHAPES for n in (_MAX_DEPTH + 1, 1000)])
def test_pattern_past_the_length_limit_is_a_nan_outcome(fixture_graph, shape, patterns):
    query = PATTERN_SHAPES[shape](patterns)
    candidate, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert candidate.extracted_query == query
    assert db_output == NAN_SENTINEL
    assert engine_error == "parse: pattern too long"


@pytest.mark.parametrize(
    "longitude, shown", [("1e308*10", "inf"), ("-1e308*10", "-inf"), ("1e308*10 - 1e308*10", "nan")]
)
@pytest.mark.parametrize("first", [True, False])
def test_non_finite_coordinate_is_a_nan_outcome(fixture_graph, longitude, shown, first):
    points = [f"point({{latitude: 0, longitude: {longitude}}})", "point({latitude: 0, longitude: 0})"]
    query = "RETURN point.distance({}, {})".format(*(points if first else points[::-1]))
    _, db_output, engine_error = run_stage1(fixture_graph, f"```cypher\n{query}\n```")
    assert db_output == NAN_SENTINEL
    assert engine_error == f"runtime: longitude {shown} is not finite"


def test_trick_question_flows_to_empty_list(fixture_graph, templates, corpus):
    spec = next(s for s in corpus if s.is_trick)
    config = _config(templates)
    prompt1 = build_task1_prompt(spec.question, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(spec.question, "[]", templates["task2"])
    gateway = _replay_gateway(
        "test-model",
        [(prompt1, spec.ground_truth_query), (prompt2, "Tower 22 does not exist in the network.")],
    )
    run = answer_question(spec.question, fixture_graph, gateway, config, expected_values=[])
    assert run.db_output == "[]"
    assert run.outcome is OutcomeCase.EMPTY_LIST
    assert "does not exist" in run.answer


def test_replay_miss_recorded_as_stage_failure(fixture_graph, templates):
    config = _config(templates)
    gateway = _replay_gateway("test-model", [])
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, config)
    assert run.failure is not None and run.failure.startswith("task1:")
    assert run.task1_response is None
    assert run.db_output == NAN_SENTINEL
    assert run.outcome is OutcomeCase.NAN
    assert run.answer is None


def test_stage2_gateway_failure_marked(fixture_graph, templates):
    config = _config(templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    gateway = _replay_gateway("test-model", [(prompt1, TOWER_QUERY)])
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, config)
    assert run.extracted_query == TOWER_QUERY
    assert run.db_output == TOWER_RECORD
    assert run.failure.startswith("task2:")
    assert run.answer is None


def test_pipeline_is_read_only(fixture_graph, templates):
    before = fixture_graph.stats()
    test_answer_question_end_to_end(fixture_graph, templates)
    after = fixture_graph.stats()
    assert (before.node_count, before.relationship_count) == (after.node_count, after.relationship_count)


def test_run_record_round_trip(fixture_graph, templates):
    config = _config(templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(TOWER_QUESTION, TOWER_RECORD, templates["task2"])
    gateway = _replay_gateway("test-model", [(prompt1, TOWER_QUERY), (prompt2, TOWER_ANSWER)])
    run = answer_question(TOWER_QUESTION, fixture_graph, gateway, config)
    assert PipelineRun.from_dict(run.to_dict()) == run


def test_distinct_models_per_task(fixture_graph, templates):
    config = PipelineConfig(model_task1="coder", model_task2="writer", templates=templates)
    prompt1 = build_task1_prompt(TOWER_QUESTION, fixture_graph, templates["task1"])
    prompt2 = build_task2_prompt(TOWER_QUESTION, TOWER_RECORD, templates["task2"])
    transcript = Transcript(
        [
            TranscriptEntry("coder", prompt1, TOWER_QUERY),
            TranscriptEntry("writer", prompt2, TOWER_ANSWER),
        ]
    )
    run = answer_question(TOWER_QUESTION, fixture_graph, Gateway(ReplayBackend(transcript)), config)
    assert run.model_task1 == "coder" and run.model_task2 == "writer"
    assert run.answer == TOWER_ANSWER
