#!/usr/bin/env python3
"""Build the shipped evaluation fixtures.

Produces, under src/graphqa/data/:

  msa_dataset.jsonl          the default tower/sensor dataset
  corpus.json                7 benchmark questions + 10 approved rephrasings each
  transcripts/<model>.jsonl  replay transcripts for four model configurations

Each model's transcript encodes a designed per-question outcome profile
(exact-match query, content-with-extras, misinformation, failed query, ...)
so the offline evaluation exercises every outcome class at known rates. After
writing everything, the script replays the transcripts through the real
pipeline and asserts the aggregate scores match the designed targets, so a
drifting engine or template cannot silently invalidate the fixtures.

Run from the repository root:  python tools/make_fixtures.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from graphqa.cli import sanitize_model_name
from graphqa.cypher import haversine_distance
from graphqa.datafiles import atomic_write
from graphqa.evaluation import (
    QuestionSpec,
    compute_metrics,
    evaluate_model,
    metric_rows,
    save_corpus,
    validate_corpus,
)
from graphqa.graph import generate_msa_fixture, load_dataset, serialize_dataset
from graphqa.llm import Gateway, ReplayBackend, Transcript, TranscriptEntry
from graphqa.pipeline import PipelineConfig, build_task1_prompt, build_task2_prompt, load_templates, run_stage1

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "graphqa", "data")
FIXED_TIMESTAMP = "2025-08-01T00:00:00Z"

MODELS = ["gemma2:2b", "llama3.2:3b", "llama3.1:8b", "deepseek-coder:6.7b"]

QUESTION_IDS = [
    "sensors-tower-0",
    "sensors-tower-12",
    "sensors-tower-22",
    "location-tower-4",
    "closest-towers",
    "sensor-count-tower-8",
    "tower-count",
]

# ---------------------------------------------------------------------------
# Outcome profiles.
#
#   EM    exact-match query, correct answer
#   EMB   exact-match query, answer fails to state the values
#   C     non-EM query whose output still contains the needed values
#   CB    like C but the answer fails to state the values
#   MH    query fetches wrong data; answer hedges instead of asserting it
#   MA    query fetches wrong data and the answer asserts it (misinformation
#         reaching the user)
#   NAN   failed query (refusal / unsupported clause / syntax error / empty
#         result); answer acknowledges the failure
#   TOK   trick question handled right: empty list + nonexistence answer
#   TNAN  trick question with a failed query; hedged answer
# ---------------------------------------------------------------------------

ORIGINAL_PROFILES: dict[str, dict[str, str]] = {
    "llama3.1:8b": {
        "sensors-tower-0": "C",
        "sensors-tower-12": "C",
        "sensors-tower-22": "TOK",
        "location-tower-4": "EM",
        "closest-towers": "NAN",
        "sensor-count-tower-8": "EM",
        "tower-count": "EM",
    },
    "gemma2:2b": {
        "sensors-tower-0": "C",
        "sensors-tower-12": "CB",
        "sensors-tower-22": "TOK",
        "location-tower-4": "C",
        "closest-towers": "MH",
        "sensor-count-tower-8": "NAN",
        "tower-count": "EM",
    },
    "llama3.2:3b": {
        "sensors-tower-0": "C",
        "sensors-tower-12": "NAN",
        "sensors-tower-22": "TOK",
        "location-tower-4": "C",
        "closest-towers": "MH",
        "sensor-count-tower-8": "EM",
        "tower-count": "EM",
    },
    "deepseek-coder:6.7b": {
        "sensors-tower-0": "C",
        "sensors-tower-12": "CB",
        "sensors-tower-22": "TOK",
        "location-tower-4": "C",
        "closest-towers": "MH",
        "sensor-count-tower-8": "EMB",
        "tower-count": "EM",
    },
}

# Profile counts for the ten rephrased variants of each question, expanded in
# listed order to variants 1..10.
REPHRASE_PROFILES: dict[str, dict[str, list[tuple[str, int]]]] = {
    "llama3.1:8b": {
        "sensors-tower-0": [("C", 1), ("MH", 2), ("NAN", 7)],
        "sensors-tower-12": [("C", 1), ("MH", 2), ("NAN", 7)],
        "sensors-tower-22": [("TOK", 10)],
        "location-tower-4": [("EM", 9), ("NAN", 1)],
        "closest-towers": [("NAN", 10)],
        "sensor-count-tower-8": [("EM", 8), ("CB", 2)],
        "tower-count": [("EM", 9), ("CB", 1)],
    },
    "gemma2:2b": {
        "sensors-tower-0": [("CB", 2), ("MH", 6), ("MA", 2)],
        "sensors-tower-12": [("C", 2), ("CB", 2), ("MH", 4), ("MA", 2)],
        "sensors-tower-22": [("TOK", 6), ("TNAN", 4)],
        "location-tower-4": [("EM", 1), ("C", 2), ("CB", 3), ("MH", 2), ("NAN", 2)],
        "closest-towers": [("CB", 2), ("MH", 7), ("NAN", 1)],
        "sensor-count-tower-8": [("EM", 4), ("C", 1), ("CB", 2), ("MH", 3)],
        "tower-count": [("EM", 5), ("EMB", 1), ("C", 1), ("CB", 1), ("NAN", 2)],
    },
    "llama3.2:3b": {
        "sensors-tower-0": [("C", 3), ("CB", 2), ("MA", 1), ("NAN", 4)],
        "sensors-tower-12": [("C", 2), ("CB", 2), ("MH", 2), ("NAN", 4)],
        "sensors-tower-22": [("TOK", 8), ("TNAN", 2)],
        "location-tower-4": [("C", 4), ("CB", 2), ("MH", 1), ("NAN", 3)],
        "closest-towers": [("CB", 2), ("MH", 1), ("NAN", 7)],
        "sensor-count-tower-8": [("EM", 4), ("C", 2), ("CB", 1), ("NAN", 3)],
        "tower-count": [("EM", 5), ("EMB", 1), ("C", 1), ("NAN", 3)],
    },
    "deepseek-coder:6.7b": {
        "sensors-tower-0": [("C", 1), ("MA", 3), ("MH", 2), ("NAN", 4)],
        "sensors-tower-12": [("C", 2), ("MA", 3), ("MH", 1), ("NAN", 4)],
        "sensors-tower-22": [("TOK", 3), ("TNAN", 7)],
        "location-tower-4": [("C", 2), ("CB", 1), ("MH", 2), ("MA", 2), ("NAN", 3)],
        "closest-towers": [("CB", 1), ("MH", 1), ("MA", 3), ("NAN", 5)],
        "sensor-count-tower-8": [("EM", 4), ("EMB", 2), ("C", 1), ("CB", 1), ("MH", 2)],
        "tower-count": [("EM", 6), ("EMB", 2), ("C", 1), ("NAN", 1)],
    },
}

# Designed aggregate targets (counts over runs), used to verify the shipped
# fixtures end to end before they are written.
TARGETS_77 = {
    "gemma2:2b": dict(em=12, content=40, output=59, absolute=26, em_only=11, misinfo=27),
    "llama3.2:3b": dict(em=12, content=44, output=66, absolute=34, em_only=11, misinfo=6),
    "llama3.1:8b": dict(em=29, content=47, output=74, absolute=44, em_only=29, misinfo=4),
    "deepseek-coder:6.7b": dict(em=16, content=33, output=57, absolute=24, em_only=11, misinfo=20),
}
TARGETS_7 = {
    "gemma2:2b": dict(em=1, content=5, output=6, absolute=4),
    "llama3.2:3b": dict(em=2, content=5, output=7, absolute=5),
    "llama3.1:8b": dict(em=3, content=6, output=7, absolute=6),
    "deepseek-coder:6.7b": dict(em=2, content=6, output=5, absolute=4),
}

REPHRASINGS = {
    "sensors": [
        "Which sensors are attached to tower {k}?",
        "What sensors does tower {k} have?",
        "List the sensors attached to tower {k}.",
        "Which sensors are mounted on tower {k}?",
        "What sensors are installed on tower {k}?",
        "Can you tell me which sensors are attached to tower {k}?",
        "What are the sensors on tower {k}?",
        "Which sensors does tower {k} carry?",
        "Name the sensors attached to tower {k}.",
        "What sensors are located on tower {k}?",
    ],
    "location": [
        "Where is tower {k} located?",
        "Where is tower {k}?",
        "What are the coordinates of tower {k}?",
        "Can you give me the location of tower {k}?",
        "What is the position of tower {k}?",
        "Where can tower {k} be found?",
        "Give me the coordinates of tower {k}.",
        "What location is tower {k} at?",
        "Tell me where tower {k} is.",
        "What are the latitude and longitude of tower {k}?",
    ],
    "closest": [
        "Which two towers are nearest to each other?",
        "What pair of towers is closest together?",
        "Which towers are the shortest distance apart?",
        "Which two towers sit closest to one another?",
        "What towers are nearest each other?",
        "Which pair of towers has the smallest separation?",
        "Which towers lie closest together?",
        "Identify the two towers that are closest to each other.",
        "Which two towers have the least distance between them?",
        "What are the two closest towers?",
    ],
    "sensor-count": [
        "How many sensors does tower {k} have?",
        "What is the number of sensors on tower {k}?",
        "Count the sensors on tower {k}.",
        "How many sensors are attached to tower {k}?",
        "How many sensors are installed on tower {k}?",
        "What number of sensors does tower {k} carry?",
        "Tell me how many sensors are on tower {k}.",
        "How many sensors are mounted on tower {k}?",
        "What is the sensor count for tower {k}?",
        "How many sensors does tower {k} hold?",
    ],
    "tower-count": [
        "How many towers are in the network?",
        "What is the total number of towers?",
        "Count the towers.",
        "How many towers exist?",
        "How many towers does the network contain?",
        "What number of towers are there?",
        "Tell me how many towers there are.",
        "How many towers are present?",
        "What is the tower count?",
        "How many towers are deployed?",
    ],
}


def build_corpus(
    graph,
) -> tuple[list[QuestionSpec], tuple[int, int], tuple[int, int], int, dict[int, tuple[float, float]]]:
    """The corpus, the closest and farthest tower pairs, tower 8's sensor count and each tower's position."""
    towers = {
        n.properties["Tower"]: (n.properties["Lat"], n.properties["Long"])
        for n in graph.nodes_with_label("Tower")
    }
    # Brute-force O(n^2) closest pair over the emitted fixture.
    pairs = sorted(
        (haversine_distance(towers[a], towers[b]), a, b)
        for a in towers
        for b in towers
        if a < b
    )
    assert pairs[0][0] < pairs[1][0], "closest tower pair must be unique"
    closest = (pairs[0][1], pairs[0][2])
    farthest = (pairs[-1][1], pairs[-1][2])
    assert not set(closest) & set(farthest), "misinformation pair must differ from the closest pair"

    def sensor_names(tower: int) -> list[str]:
        return [graph.node(rel.dst).properties["Name"] for rel in graph.outgoing(tower)]

    count_t8 = len(graph.outgoing(8))

    def sensors_spec(qid: str, tower: int, trick: bool) -> QuestionSpec:
        return QuestionSpec(
            id=qid,
            question=f"What sensors are attached to tower {tower}?",
            ground_truth_query=(
                f"MATCH (t:Tower {{Tower: {tower}}})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name AS Name"
            ),
            expected_values=[] if trick else sensor_names(tower),
            is_trick=trick,
            rephrasings=[t.format(k=tower) for t in REPHRASINGS["sensors"]],
        )

    specs = [
        sensors_spec("sensors-tower-0", 0, trick=False),
        sensors_spec("sensors-tower-12", 12, trick=False),
        sensors_spec("sensors-tower-22", 22, trick=True),
        QuestionSpec(
            id="location-tower-4",
            question="What is the location of tower 4?",
            ground_truth_query="MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long",
            expected_values=[repr(towers[4][0]), repr(towers[4][1])],
            rephrasings=[t.format(k=4) for t in REPHRASINGS["location"]],
        ),
        QuestionSpec(
            id="closest-towers",
            question="Which towers are closest to each other?",
            ground_truth_query=(
                "MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower "
                "RETURN a.Tower AS TowerA, b.Tower AS TowerB "
                "ORDER BY point.distance(point({latitude: a.Lat, longitude: a.Long}), "
                "point({latitude: b.Lat, longitude: b.Long})) LIMIT 1"
            ),
            expected_values=[str(closest[0]), str(closest[1])],
            rephrasings=list(REPHRASINGS["closest"]),
        ),
        QuestionSpec(
            id="sensor-count-tower-8",
            question="How many sensors are on tower 8?",
            ground_truth_query=(
                "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN count(s) AS SensorCount"
            ),
            expected_values=[str(count_t8)],
            rephrasings=[t.format(k=8) for t in REPHRASINGS["sensor-count"]],
        ),
        QuestionSpec(
            id="tower-count",
            question="How many towers are there?",
            ground_truth_query="MATCH (t:Tower) RETURN count(t) AS TowerCount",
            expected_values=[str(len(towers))],
            rephrasings=list(REPHRASINGS["tower-count"]),
        ),
    ]
    return specs, closest, farthest, count_t8, towers


# --- stage-1 responses -------------------------------------------------------

EM_STYLES = [
    "{q}",
    "```cypher\n{q}\n```",
    "```\n{q}\n```",
    "Here is the Cypher query: {q}",
    "{q};",
    "{q_spaced}",
]

CONTENT_QUERIES = {
    "sensors": [
        "MATCH (t:Tower {{Tower: {k}}})-[:HAS_SENSOR]->(s:Sensor) RETURN s",
        "MATCH (t:Tower {{Tower: {k}}})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name, s.SensorType",
        "MATCH (t:Tower {{Tower: {k}}})-[:HAS_SENSOR]->(s) RETURN s.Name AS Name, s.Unit AS Unit",
    ],
    "location": [
        "MATCH (t:Tower {Tower: 4}) RETURN t",
        "MATCH (t:Tower) RETURN t.Tower, t.Lat, t.Long",
        "MATCH (t:Tower {Tower: 4}) RETURN t.Lat, t.Long",
    ],
    "closest": [
        "MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower, b.Tower "
        "ORDER BY point.distance(point({latitude: a.Lat, longitude: a.Long}), "
        "point({latitude: b.Lat, longitude: b.Long}))",
        "MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower RETURN a.Tower, b.Tower "
        "ORDER BY point.distance(point({latitude: a.Lat, longitude: a.Long}), "
        "point({latitude: b.Lat, longitude: b.Long})) LIMIT 5",
    ],
    "sensor-count": [
        "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN count(*)",
        "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN t.Tower, count(s)",
    ],
    "tower-count": [
        "MATCH (t:Tower) RETURN count(*)",
        "MATCH (n:Tower) RETURN count(n)",
    ],
}

MISINFO_QUERIES = {
    "sensors": [
        "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name",
        "MATCH (t:Tower {Tower: 8})-[:HAS_SENSOR]->(s:Sensor) RETURN s",
    ],
    "location": ["MATCH (t:Tower {Tower: 8}) RETURN t.Lat AS Lat, t.Long AS Long"],
    "closest": [
        "MATCH (a:Tower), (b:Tower) WHERE a.Tower < b.Tower "
        "RETURN a.Tower AS TowerA, b.Tower AS TowerB "
        "ORDER BY point.distance(point({latitude: a.Lat, longitude: a.Long}), "
        "point({latitude: b.Lat, longitude: b.Long})) DESC LIMIT 1"
    ],
    "sensor-count": ["MATCH (t:Tower {Tower: 0})-[:HAS_SENSOR]->(s:Sensor) RETURN count(s)"],
    "tower-count": ["MATCH (s:Sensor) RETURN count(s)"],
}

# Failed-query flavors; {k} is the tower number mentioned by the question
# family (harmless for families without one). The last flavor parses and
# executes but matches nothing, exercising the empty-list outcome.
FAIL_FLAVORS = [
    "I'm sorry, I am not able to translate that question into a database query.",
    "MATCH (t:Tower) WITH t RETURN t",
    "MATCH (t:Tower {{Tower: {k}}} RETURN t.Name",
    "MATCH (t:Tower) RETURN size(t)",
    "__EMPTY__",
]

EMPTY_QUERIES = {
    "sensors": "MATCH (t:Tower {Tower: 50})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name",
    "location": "MATCH (t:Tower {Tower: 44}) RETURN t.Lat, t.Long",
    "closest": "MATCH (a:Tower {Tower: 77}), (b:Tower {Tower: 78}) RETURN a.Tower, b.Tower",
    "sensor-count": "MATCH (t:Tower {Tower: 88})-[:HAS_SENSOR]->(s:Sensor) RETURN s",
    "tower-count": "MATCH (x:Antenna) RETURN x",
}

TRICK_OK_QUERIES = [
    "MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s:Sensor) RETURN s",
    "MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name",
    "MATCH (t:Tower {Tower: 22})-[:HAS_SENSOR]->(s) RETURN s.Name AS Name",
]


def family_of(qid: str) -> str:
    if qid.startswith("sensors-"):
        return "sensors"
    if qid.startswith("location"):
        return "location"
    if qid.startswith("closest"):
        return "closest"
    if qid.startswith("sensor-count"):
        return "sensor-count"
    return "tower-count"


def tower_of(qid: str) -> int:
    for token in qid.split("-"):
        if token.isdigit():
            return int(token)
    return 0


# --- stage-2 answers ----------------------------------------------------------


def correct_answer(spec: QuestionSpec, style: int, values: dict) -> str:
    family = family_of(spec.id)
    k = tower_of(spec.id)
    if family == "sensors":
        names = ", ".join(spec.expected_values)
        variants = [
            f"Tower {k} has the following sensors: {names}.",
            f"The sensors attached to tower {k} are {names}.",
            f"According to the database, tower {k} carries these sensors: {names}.",
        ]
    elif family == "location":
        lat, long = spec.expected_values
        variants = [
            f"The location of Tower {k} is at {lat}° latitude and {long}° longitude.",
            f"Tower {k} is located at latitude {lat} and longitude {long}.",
            f"Tower {k} sits at coordinates ({lat}, {long}).",
        ]
    elif family == "closest":
        a, b = spec.expected_values
        variants = [
            f"Towers {a} and {b} are the closest to each other.",
            f"The two closest towers are tower {a} and tower {b}.",
            f"Tower {a} and tower {b} are nearest to one another.",
        ]
    elif family == "sensor-count":
        (n,) = spec.expected_values
        variants = [
            f"There are {n} sensors on tower {k}.",
            f"Tower {k} has {n} sensors attached.",
            f"The database shows {n} sensors on tower {k}.",
        ]
    else:
        (n,) = spec.expected_values
        variants = [
            f"There are {n} towers.",
            f"The network contains {n} towers.",
            f"In total there are {n} towers.",
        ]
    return variants[style % len(variants)]


BAD_SUMMARIES = [
    "The database returned several records, but the specific values are unclear to me.",
    "The query ran successfully and produced a list of records relevant to the question.",
    "Multiple matching records were returned by the database for this question.",
]

TRICK_OK_ANSWERS = [
    "Tower 22 does not exist in the network, so it has no sensors.",
    "There is no tower 22 in the database.",
    "No sensors were found because tower 22 does not exist.",
]

HEDGED_FAILURE_ANSWERS = [
    "I could not retrieve the requested information from the database.",
    "The database query failed, so no answer is available.",
    "No matching records were found in the database.",
    "The database returned an empty result, so the information could not be found.",
]


def misinfo_hedged_answer(qid: str, k: int) -> str:
    family = family_of(qid)
    return {
        "sensors": f"The query returned sensors for tower 8 rather than tower {k}, so I cannot reliably answer.",
        "location": "The database output appears to describe tower 8 instead of tower 4, so I cannot give the location.",
        "closest": "The returned data does not identify the closest pair of towers, so I cannot answer the question.",
        "sensor-count": "The query seems to have counted sensors on a different tower, so I cannot give the number for tower 8.",
        "tower-count": "The output counts sensors rather than towers, so I cannot answer the question.",
    }[family]


def misinfo_asserted_answer(qid: str, k: int, values: dict) -> str:
    family = family_of(qid)
    if family == "sensors":
        wrong = ", ".join(values["t8_names"][:3])
        return f"Tower {k} has the following sensors: {wrong}."
    if family == "location":
        lat, long = values["t8_coords"]
        return f"The location of Tower {k} is at {lat!r}° latitude and {long!r}° longitude."
    if family == "closest":
        fa, fb = values["farthest"]
        return f"Towers {fa} and {fb} are the closest to each other."
    if family == "sensor-count":
        return f"There are {values['t0_count']} sensors on tower 8."
    return f"There are {values['sensor_total']} towers."


def task1_response(profile: str, spec: QuestionSpec, style: int, values: dict) -> str:
    family = family_of(spec.id)
    k = tower_of(spec.id)
    if profile in ("EM", "EMB"):
        template = EM_STYLES[style % len(EM_STYLES)]
        return template.format(
            q=spec.ground_truth_query,
            q_spaced=spec.ground_truth_query.replace(" RETURN", "  RETURN", 1),
        )
    if profile in ("C", "CB"):
        pool = CONTENT_QUERIES[family]
        query = pool[style % len(pool)].format(k=k) if "{k}" in pool[style % len(pool)] else pool[style % len(pool)]
        return query
    if profile in ("MH", "MA"):
        pool = MISINFO_QUERIES[family]
        return pool[style % len(pool)]
    if profile == "TOK":
        return TRICK_OK_QUERIES[style % len(TRICK_OK_QUERIES)]
    if profile in ("NAN", "TNAN"):
        flavors = FAIL_FLAVORS[:4] if profile == "TNAN" else FAIL_FLAVORS
        flavor = flavors[style % len(flavors)]
        if flavor == "__EMPTY__":
            return EMPTY_QUERIES[family]
        return flavor.format(k=k) if "{k}" in flavor else flavor
    raise ValueError(f"unknown profile {profile}")


def task2_response(profile: str, spec: QuestionSpec, style: int, values: dict) -> str:
    if profile in ("EM", "C"):
        return correct_answer(spec, style, values)
    if profile in ("EMB", "CB"):
        return BAD_SUMMARIES[style % len(BAD_SUMMARIES)]
    if profile == "TOK":
        return TRICK_OK_ANSWERS[style % len(TRICK_OK_ANSWERS)]
    if profile == "MH":
        return misinfo_hedged_answer(spec.id, tower_of(spec.id))
    if profile == "MA":
        return misinfo_asserted_answer(spec.id, tower_of(spec.id), values)
    if profile in ("NAN", "TNAN"):
        return HEDGED_FAILURE_ANSWERS[style % len(HEDGED_FAILURE_ANSWERS)]
    raise ValueError(f"unknown profile {profile}")


def expand_profiles(model: str, qid: str) -> list[str]:
    """Profiles for variants 0..10 of one question under one model."""
    profiles = [ORIGINAL_PROFILES[model][qid]]
    for profile, count in REPHRASE_PROFILES[model][qid]:
        profiles.extend([profile] * count)
    assert len(profiles) == 11, f"{model}/{qid}: expected 11 profiles, got {len(profiles)}"
    return profiles


def build_transcript(model: str, specs, graph, templates, values: dict) -> Transcript:
    entries = []
    style = 0
    for spec in specs:
        profiles = expand_profiles(model, spec.id)
        questions = [spec.question] + spec.rephrasings
        for variant, (profile, question) in enumerate(zip(profiles, questions)):
            prompt1 = build_task1_prompt(question, graph, templates["task1"])
            response1 = task1_response(profile, spec, style, values)
            entries.append(TranscriptEntry(model, prompt1, response1, FIXED_TIMESTAMP))

            _, db_output, _ = run_stage1(graph, response1)
            prompt2 = build_task2_prompt(question, db_output, templates["task2"])
            response2 = task2_response(profile, spec, style, values)
            entries.append(TranscriptEntry(model, prompt2, response2, FIXED_TIMESTAMP))
            style += 1
    return Transcript(entries)


def verify(model: str, specs, graph, templates, transcript: Transcript) -> None:
    gateway = Gateway(ReplayBackend(transcript))
    config = PipelineConfig(model_task1=model, templates=templates)
    records = evaluate_model(graph, specs, gateway, config)
    assert len(records) == 77, f"{model}: expected 77 runs, got {len(records)}"

    def counts(recs):
        return dict(
            em=sum(r.grades.em for r in recs),
            content=sum(r.grades.content for r in recs),
            output=sum(r.grades.output_correct for r in recs),
            absolute=sum(r.grades.absolute_correct for r in recs),
            em_only=sum(1 for r in recs if r.grades.em == 1 and r.grades.output_correct == 1),
            misinfo=sum(r.grades.misinformation for r in recs),
        )

    got_77 = counts(records)
    assert got_77 == TARGETS_77[model], f"{model} 77q: designed {TARGETS_77[model]}, got {got_77}"
    originals = [r for r in records if r.variant == 0]
    got_7 = {key: value for key, value in counts(originals).items() if key in TARGETS_7[model]}
    assert got_7 == TARGETS_7[model], f"{model} 7q: designed {TARGETS_7[model]}, got {got_7}"

    report = compute_metrics(metric_rows(records, {s.id: s for s in specs}))
    scores = report.scores[model]
    print(
        f"  {model:>20}: EM {scores.em_score:.1f}  content {scores.content_score:.1f}  "
        f"output {scores.output_score:.1f}  absolute {scores.absolute_score:.1f}  "
        f"misinfo {scores.misinformation_score:.1f}  em-only {scores.absolute_em_only:.1f}"
    )


def main() -> None:
    os.makedirs(os.path.join(DATA_DIR, "transcripts"), exist_ok=True)

    dataset_text = serialize_dataset(generate_msa_fixture())
    atomic_write(os.path.join(DATA_DIR, "msa_dataset.jsonl"), dataset_text)
    graph = load_dataset(dataset_text)
    stats = graph.stats()
    assert (stats.node_count, stats.relationship_count, stats.property_key_count) == (135, 121, 11)

    specs, closest, farthest, count_t8, towers = build_corpus(graph)
    validate_corpus(graph, specs)
    save_corpus(specs, os.path.join(DATA_DIR, "corpus.json"))
    print(f"corpus: closest pair {closest}, farthest {farthest}, tower-8 sensors {count_t8}")

    t8_names = [graph.node(rel.dst).properties["Name"] for rel in graph.outgoing(8)]
    values = dict(
        t8_names=t8_names,
        t8_coords=towers[8],
        farthest=farthest,
        t0_count=len(graph.outgoing(0)),
        sensor_total=len(graph.nodes_with_label("Sensor")),
    )
    assert values["t0_count"] != count_t8, "misinformation count must differ from the true count"

    templates = load_templates()
    print("verifying shipped transcripts against designed targets:")
    for model in MODELS:
        transcript = build_transcript(model, specs, graph, templates, values)
        verify(model, specs, graph, templates, transcript)
        path = os.path.join(DATA_DIR, "transcripts", sanitize_model_name(model) + ".jsonl")
        transcript.save(path)
        print(f"  wrote {path} ({len(transcript)} entries)")


if __name__ == "__main__":
    main()
