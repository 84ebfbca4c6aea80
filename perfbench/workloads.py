"""The four workloads: their inputs, one unit of work, and its checks.

Every workload is a closed loop with one client in this process; cli-cold
also runs one child interpreter at a time. ``setup`` builds the inputs and is
what ``setup_s`` times. ``prepare`` runs untimed checks and a warm-up, and
``digest`` returns one combined digest of the workload's outputs.

``unit`` runs one unit of work (a replay pass, a round of the query mix, a
cycle of the lookup pool, one CLI invocation) and returns a ``Unit``. Its
samples carry a key naming the operation, so the runner can take each
operation's fastest repetition. An operation fails if it raises anything but
an expected ``EngineError``, if its output differs from the golden, or if the
CLI exits non-zero. Expected ``nan`` outcomes are correct outputs.

Goldens (``goldens.json``, written by ``freeze.py``) hold digests of the
outputs at the commit that froze them. Replay reports and CLI stdout do not
depend on the seed and are checked on every seed. The generated graphs do, so
engine-scaled and ingest-lookup outputs are checked against goldens on the
frozen seed and, on any other seed, against the warm-up's output for the
same query.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from graphqa import cypher, data_path, evaluation, llm, pipeline
from graphqa.errors import EngineError
from graphqa.graph import GeneratorConfig, dataset as graph_dataset, generate_msa_fixture

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRANSCRIPTS = data_path("transcripts")
DEFAULT_SEED = 0

# The paper's headline for llama3.1:8b, checked on every replay pass.
PAPER_MODEL = "llama3.1:8b"
PAPER_SCORES = {"absolute_em_only": "37.7", "absolute_score": "57.1"}
# Expected outcome of a query the goldens lack; it never matches.
NO_GOLDEN = "no golden"


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def load_transcripts() -> dict[str, llm.Transcript]:
    """Shipped transcripts keyed by the one model each records."""
    transcripts = {}
    for name in sorted(os.listdir(TRANSCRIPTS)):
        transcript = llm.Transcript.load(os.path.join(TRANSCRIPTS, name))
        (model,) = {entry.model_name for entry in transcript.entries}
        transcripts[model] = transcript
    return transcripts


def outcome_kind(outcome: str) -> str:
    return "ok" if outcome.startswith("ok:") else outcome


def run_query(graph, text: str) -> tuple[float, str]:
    """Seconds spent in parse -> execute -> serialize, and the outcome.

    The outcome is ``ok:<digest of the serialized output>`` or
    ``error:<EngineError kind>``. Any other exception propagates.
    """
    start = perf_counter()
    try:
        output = cypher.serialize_records(cypher.execute(graph, cypher.parse_query(text)))
    except EngineError as exc:
        return perf_counter() - start, "error:" + exc.kind
    elapsed = perf_counter() - start
    return elapsed, "ok:" + short_digest(output)


@dataclass
class Unit:
    """One unit of work: its key, (operation key, seconds) per operation
    that succeeded, and the operations attempted and failed."""

    key: str
    samples: list[tuple[object, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    name = ""
    unit_name = ""
    setup_reps = 1

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens.get(self.name, {})
        self.seed_goldens = seed == goldens.get("seed")
        self.problems: Counter = Counter()
        self.setup_layers: dict[str, list[float]] = {}
        self.tracer = None
        self.op = 0
        self.output_digest = ""

    def digest(self) -> str:
        return self.output_digest

    def note_setup(self, metric: str, value: float) -> None:
        """Record a per-layer value measured during one set-up."""
        self.setup_layers.setdefault(metric, []).append(value)

    def problem(self, message: str) -> None:
        self.problems[message] += 1

    def _next_op(self) -> None:
        self.op += 1
        if self.tracer is not None:
            self.tracer.op = self.op

    def _query_op(self, unit: Unit, key, graph, query: str, expected: str | None) -> str | None:
        """Run one query as one operation of ``unit``; return its outcome.

        ``expected`` None checks nothing: the warm-up that sets expectations.
        """
        self._next_op()
        unit.attempted += 1
        try:
            elapsed, outcome = run_query(graph, query)
        except Exception as exc:
            self.problem(f"{query!r} raised {type(exc).__name__}: {exc}")
            unit.failed += 1
            return None
        if expected is not None and outcome != expected:
            self.problem(f"{query!r}: {outcome}, expected {expected}")
            unit.failed += 1
        else:
            unit.samples.append((key, elapsed))
        return outcome


class _StampedBackend:
    """Replay backend that notes when each completion is requested.

    Under replay every question makes exactly two calls, so the stage-1
    calls are every other stamp. They split an ``evaluate_model`` call into
    one interval per question without wrapping anything inside it.
    """

    def __init__(self, backend):
        self.backend = backend
        self.stamps: list[float] = []

    def complete(self, request):
        self.stamps.append(perf_counter())
        return self.backend.complete(request)


class ReplayEval(Workload):
    """The paper's benchmark: 4 models x 77 instances on the shipped graph."""

    name = "replay-eval"
    unit_name = "pass"
    setup_reps = 10
    reports = ("", "")

    def setup(self) -> None:
        self.graph = graph_dataset.load_dataset_file(data_path("msa_dataset.jsonl"))
        self.specs = evaluation.load_corpus(data_path("corpus.json"))
        evaluation.validate_corpus(self.graph, self.specs)
        self.specs_by_id = {spec.id: spec for spec in self.specs}
        self.templates = pipeline.load_templates()
        start = perf_counter()
        self.transcripts = load_transcripts()
        self.note_setup("llm.transcript_load_ms", (perf_counter() - start) * 1000)
        self.order = sorted(self.transcripts)
        random.Random(self.seed).shuffle(self.order)

    def prepare(self) -> None:
        self.unit()
        self.output_digest = combined_digest(self.reports)

    def unit(self) -> Unit:
        unit = Unit("pass")
        rows = []
        try:
            for model in self.order:
                backend = _StampedBackend(llm.ReplayBackend(self.transcripts[model]))
                config = pipeline.PipelineConfig(model_task1=model, templates=self.templates)
                start = perf_counter()
                records = evaluation.evaluate_model(self.graph, self.specs, llm.Gateway(backend), config)
                end = perf_counter()
                unit.attempted += len(records)
                if len(backend.stamps) != 2 * len(records):
                    self.problem(f"{model}: {len(backend.stamps)} completions for {len(records)} runs")
                bounds = [start, *backend.stamps[2::2], end]
                unit.samples += [((model, i), b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
                rows.extend(evaluation.metric_rows(records, self.specs_by_id))
            report = evaluation.compute_metrics(rows)
            self.reports = (evaluation.render_text_report(report), evaluation.render_csv_report(report))
        except Exception as exc:  # one failed question aborts the pass
            self.problem(f"pass raised {type(exc).__name__}: {exc}")
            unit.attempted = unit.failed = max(unit.attempted, 1)
            unit.samples = []
            return unit
        if not self._pass_ok(report):
            unit.failed = unit.attempted
            unit.samples = []
        return unit

    def _pass_ok(self, report) -> bool:
        ok = True
        for key, value in zip(("report.txt", "report.csv"), self.reports):
            if self.goldens.get(key) != combined_digest([value]):
                self.problem(f"{key} differs from the golden")
                ok = False
        scores = report.scores.get(PAPER_MODEL)
        for field_name, expected in PAPER_SCORES.items():
            got = f"{getattr(scores, field_name):.1f}" if scores else "missing"
            if got != expected:
                self.problem(f"{PAPER_MODEL} {field_name} is {got}, expected {expected}")
                ok = False
        return ok

    def freeze(self) -> dict:
        self.setup()
        self.unit()
        return {key: combined_digest([value]) for key, value in zip(("report.txt", "report.csv"), self.reports)}


class EngineScaled(Workload):
    """The model-written query mix against 100 towers and 2,000 sensors."""

    name = "engine-scaled"
    unit_name = "round"
    setup_reps = 10
    TOWERS = 100
    SENSORS = 2000
    # The mix as built from the shipped transcripts and corpus, and its
    # outcomes on the shipped graph. A change to either is drift.
    MIX_SIZE = 43
    MIX_OUTCOMES = {"ok": 37, "error:parse": 5, "error:semantic": 1}

    def setup(self) -> None:
        start = perf_counter()
        transcripts = load_transcripts()
        self.note_setup("llm.transcript_load_ms", (perf_counter() - start) * 1000)
        task1_prefix = pipeline.load_templates()["task1"].body.split("{question}")[0]
        mix: list[str] = []
        for transcript in transcripts.values():
            for entry in transcript.entries:
                if entry.prompt.startswith(task1_prefix):
                    query = llm.extract_cypher(entry.response).extracted_query
                    if query is not None and query not in mix:
                        mix.append(query)
        for spec in evaluation.load_corpus(data_path("corpus.json")):
            if spec.ground_truth_query not in mix:
                mix.append(spec.ground_truth_query)
        self.mix = mix
        config = GeneratorConfig(tower_count=self.TOWERS, attached_sensors=self.SENSORS, seed=self.seed)
        self.graph = graph_dataset.dataset_to_graph(generate_msa_fixture(config))
        self.order = list(range(len(mix)))
        random.Random(self.seed).shuffle(self.order)

    def prepare(self) -> None:
        shipped = graph_dataset.load_dataset_file(data_path("msa_dataset.jsonl"))
        shipped_kinds = [outcome_kind(run_query(shipped, query)[1]) for query in self.mix]
        outcomes = Counter(shipped_kinds)
        if len(self.mix) != self.MIX_SIZE or dict(outcomes) != self.MIX_OUTCOMES:
            self.problem(
                f"query mix drifted: {len(self.mix)} queries, outcomes {dict(outcomes)}; "
                f"recorded {self.MIX_SIZE}, {self.MIX_OUTCOMES}"
            )
        self.expected: dict[str, str] = {}
        for query, shipped_kind in zip(self.mix, shipped_kinds):
            outcome = run_query(self.graph, query)[1]
            if outcome_kind(outcome) != shipped_kind:
                self.problem(f"{query!r}: {outcome} here, {shipped_kind} on the shipped graph")
            self.expected[query] = self.goldens.get(query, NO_GOLDEN) if self.seed_goldens else outcome
        self.output_digest = combined_digest(f"{query}\t{self.expected[query]}" for query in self.mix)

    def unit(self) -> Unit:
        unit = Unit("round")
        for index in self.order:
            query = self.mix[index]
            self._query_op(unit, index, self.graph, query, self.expected[query])
        return unit

    def freeze(self) -> dict:
        self.setup()
        return {query: run_query(self.graph, query)[1] for query in self.mix}


class IngestLookup(Workload):
    """Ingest of 400 towers and 20,000 sensors, then seeded point lookups."""

    name = "ingest-lookup"
    unit_name = "cycle"
    setup_reps = 6
    TOWERS = 400
    SENSORS = 20000
    # Tower numbers are drawn from a range one ninth wider than the graph,
    # so about one lookup in ten asks for a tower that does not exist.
    DRAW_RANGE = TOWERS + TOWERS // 9
    # One cycle runs this many seeded lookups; every cycle repeats them, so
    # each lookup's fastest repetition can be taken. A short cycle gives each
    # lookup more repetitions, spread over the run, to take the fastest of.
    POOL = 50
    # The three lookup shapes of the corpus reference queries; they take
    # turns so every run has the same mix.
    SHAPES = {
        "location": "MATCH (t:Tower {{Tower: {k}}}) RETURN t.Lat AS Lat, t.Long AS Long",
        "names": "MATCH (t:Tower {{Tower: {k}}})-[:HAS_SENSOR]->(s:Sensor) RETURN s.Name AS Name",
        "count": "MATCH (t:Tower {{Tower: {k}}})-[:HAS_SENSOR]->(s:Sensor) RETURN count(s) AS SensorCount",
    }

    def __init__(self, seed: int, goldens: dict):
        super().__init__(seed, goldens)
        config = GeneratorConfig(tower_count=self.TOWERS, attached_sensors=self.SENSORS, seed=seed)
        self.text = graph_dataset.serialize_dataset(generate_msa_fixture(config))
        draws = random.Random(seed)
        shapes = sorted(self.SHAPES)
        self.pool = [f"{shapes[i % len(shapes)]}:{draws.randrange(self.DRAW_RANGE)}" for i in range(self.POOL)]
        self.graph = None

    def setup(self) -> None:
        self.graph = None  # so two graphs never coexist
        start = perf_counter()
        parsed = graph_dataset.parse_dataset(self.text)
        parsed_at = perf_counter()
        self.graph = graph_dataset.dataset_to_graph(parsed)
        built_at = perf_counter()
        self.note_setup("graph.dataset.parse_ms", (parsed_at - start) * 1000)
        self.note_setup("graph.dataset.build_ms", (built_at - parsed_at) * 1000)
        self.note_setup("graph.dataset.mb_per_s", len(self.text.encode("utf-8")) / 1e6 / (built_at - start))

    def _query(self, key: str) -> str:
        shape, tower = key.split(":")
        return self.SHAPES[shape].format(k=tower)

    def prepare(self) -> None:
        warmup = Unit("warm-up")
        self.expected: dict[str, str | None] = {}
        for key in self.pool:
            golden = self.goldens.get(key, NO_GOLDEN) if self.seed_goldens else None
            outcome = self._query_op(warmup, key, self.graph, self._query(key), golden)
            self.expected[key] = golden or outcome
        self.output_digest = combined_digest(f"{key}\t{self.expected[key]}" for key in self.pool)

    def unit(self) -> Unit:
        unit = Unit("cycle")
        for index, key in enumerate(self.pool):
            self._query_op(unit, index, self.graph, self._query(key), self.expected[key])
        return unit

    def freeze(self) -> dict:
        self.setup()
        return {key: run_query(self.graph, self._query(key))[1] for key in self.pool}


class CliCold(Workload):
    """One fresh interpreter per question running ``graphqa.cli ask``.

    A run asks a seeded sample of the corpus questions, round-robin, so each
    one repeats across the whole run and its fastest invocation is taken.
    Start-up and imports dominate an invocation; the question adds little.
    """

    name = "cli-cold"
    unit_name = "invocation"
    setup_reps = 6
    questions_per_run = 10

    def __init__(self, seed: int, goldens: dict):
        super().__init__(seed, goldens)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.seen: dict[str, str] = {}
        self.span_dir = None

    def _ask(self, question: str) -> subprocess.CompletedProcess:
        command = [sys.executable, "-m", "graphqa.cli"]
        if self.span_dir is not None:
            command = [sys.executable, os.path.join(HERE, "cli_child.py"), os.path.join(self.span_dir, "spans.json")]
        command += ["ask", question, "--replay", TRANSCRIPTS, "--model-task1", PAPER_MODEL]
        return subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=120)

    def setup(self) -> None:
        specs = evaluation.load_corpus(data_path("corpus.json"))
        self.corpus_questions = [question for _, _, question in evaluation.corpus_instances(specs)]
        self.questions = random.Random(self.seed).sample(self.corpus_questions, self.questions_per_run)
        # A warm-up invocation fills the bytecode and file caches; a user
        # pays that once per install, not once per question.
        self._ask(self.questions[0])

    def prepare(self) -> None:
        if len(self.corpus_questions) != len(self.goldens):
            self.problem(f"{len(self.corpus_questions)} questions, {len(self.goldens)} goldens")

    def digest(self) -> str:
        return combined_digest(f"{q}\t{self.seen[q]}" for q in sorted(self.seen))

    def unit(self) -> Unit:
        question = self.questions[self.op % len(self.questions)]
        unit = Unit(question, attempted=1)
        self._next_op()
        start = perf_counter()
        result = self._ask(question)
        elapsed = perf_counter() - start
        self.seen[question] = short_digest(f"exit {result.returncode}\n{result.stdout}")
        if self.tracer is not None:
            self._collect_spans()
        if result.returncode != 0 or self.goldens.get(question) != self.seen[question]:
            self.problem(f"{question!r}: exit {result.returncode}, stdout differs from the golden")
            unit.failed = 1
        else:
            unit.samples.append((question, elapsed))
        return unit

    def _collect_spans(self) -> None:
        path = os.path.join(self.span_dir, "spans.json")
        with open(path, encoding="utf-8") as fh:
            self.tracer.add_spans(json.load(fh), self.op)
        os.unlink(path)

    def trace_startup(self, runs: int = 10) -> None:
        """Fastest wall time of a bare child, and of one importing the CLI."""

        def fastest_ms(code: str) -> float:
            times = []
            for _ in range(runs):
                start = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)
                times.append((perf_counter() - start) * 1000)
            return min(times)

        interpreter = fastest_ms("pass")
        self.note_setup("cli.interpreter_ms", interpreter)
        self.note_setup("cli.import_ms", fastest_ms("import graphqa.cli") - interpreter)

    def freeze(self) -> dict:
        specs = evaluation.load_corpus(data_path("corpus.json"))
        goldens = {}
        for _, _, question in evaluation.corpus_instances(specs):
            result = self._ask(question)
            goldens[question] = short_digest(f"exit {result.returncode}\n{result.stdout}")
        return goldens


WORKLOADS = {cls.name: cls for cls in (ReplayEval, EngineScaled, IngestLookup, CliCold)}
