"""graphqa benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It imports graphqa from ``src/`` of that
checkout and from nowhere else. Workloads: replay-eval, engine-scaled,
ingest-lookup, cli-cold (see ``workloads.py`` and ``README.md``).

With ``--trace 0`` nothing is wrapped and the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it wraps the layers' public
names (``tracing.py``) and reports the per-layer metrics, writing its spans to
``.bench_out/traces/``. Either way it prints each metric with its unit, a
fingerprint of the machine, one combined digest of the workload's outputs,
and, as the last line, one JSON object. It exits 1 if any output was wrong
and 2 if it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# At least this many operations per run, so the 90th percentile has ten
# samples beyond it; cli-cold needs more than --seconds to reach it.
MIN_OPS = 100
# The timed loop stops here whatever --seconds asks, well inside 180 s.
HARD_STOP_S = 150.0


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


class Timings:
    """Fastest repetition of every piece of work the run repeats.

    On a 2-vCPU VM that shares its host, the same code runs up to about 45%
    slower while neighbours are busy, for stretches from milliseconds to
    minutes. Each operation repeats across a run (every pass, round or cycle
    runs the same ones), so the figures take every operation at its fastest
    repetition, the rule ``timeit`` follows, and likewise the part of a unit
    outside its operations (for replay, aggregation and rendering).
    """

    def __init__(self) -> None:
        self.best_op: dict = {}
        self.op_keys: list = []
        self.best_rest: dict[str, float] = {}
        self.unit_keys: list[str] = []

    def add(self, unit, seconds: float) -> None:
        for key, elapsed in unit.samples:
            self.best_op[key] = min(elapsed, self.best_op.get(key, elapsed))
            self.op_keys.append(key)
        if unit.samples and not unit.failed:
            rest = max(0.0, seconds - sum(elapsed for _, elapsed in unit.samples))
            self.best_rest[unit.key] = min(rest, self.best_rest.get(unit.key, rest))
            self.unit_keys.append(unit.key)

    def latencies_ms(self) -> list[float]:
        """One sample per operation run, at that operation's fastest time."""
        return sorted(self.best_op[key] * 1000 for key in self.op_keys)

    def ops_per_s(self) -> float:
        """Operations run over the time they and their units' rest need at best."""
        busy = sum(self.best_op[key] for key in self.op_keys)
        busy += sum(self.best_rest[key] for key in self.unit_keys)
        return len(self.op_keys) / busy if busy else 0.0


def end_to_end(workload, setup_times, timings) -> dict[str, float]:
    lat_ms = timings.latencies_ms()
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return {
        "setup_s": min(setup_times),
        "ops_per_s": timings.ops_per_s(),
        "latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "latency_p90_ms": lat_ms[math.ceil(0.9 * len(lat_ms)) - 1] if lat_ms else 0.0,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


def per_layer(workload, tracer, timings, units, attempted, failed, wall, peak_alloc_mb) -> dict[str, float]:
    """Per-layer metrics: ``_us`` are self time per call; ``_ms``, counts and
    byte or char sums are per unit of work (``workload.unit_name``)."""
    totals, top_level_s = tracer.self_times()
    counts = tracer.counts

    def calls(span: str) -> int:
        return totals.get(span, (0, 0.0))[0]

    def us_per_call(span: str) -> float:
        n, seconds = totals.get(span, (0, 0.0))
        return seconds / n * 1e6 if n else 0.0

    def ms_per_unit(span: str) -> float:
        return totals.get(span, (0, 0.0))[1] * 1000 / units

    values = {
        "graph.store.schema_us": us_per_call("graph.store.schema"),
        "graph.store.schema_calls": calls("graph.store.schema") / units,
        "graph.dataset.parse_ms": ms_per_unit("graph.dataset.parse"),
        "graph.dataset.build_ms": ms_per_unit("graph.dataset.build"),
        "graph.dataset.mb_per_s": 0.0,
        "cypher.tokens.tokenize_us": us_per_call("cypher.tokens.tokenize"),
        "cypher.parser.parse_us": us_per_call("cypher.parser.parse"),
        "cypher.executor.match_ms": ms_per_unit("cypher.executor.match"),
        "cypher.executor.bindings": counts["bindings"] / units,
        "cypher.executor.bindings_per_row": counts["bindings"] / counts["rows"] if counts["rows"] else 0.0,
        "cypher.executor.project_order_ms": ms_per_unit("cypher.executor.execute"),
        "cypher.records.serialize_ms": ms_per_unit("cypher.records.serialize"),
        "cypher.records.output_bytes": counts["output_bytes"] / units,
        "llm.transcript_load_ms": ms_per_unit("llm.transcript_load"),
        "llm.complete_us": us_per_call("llm.complete"),
        "llm.calls": calls("llm.complete") / units,
        "llm.extract_us": us_per_call("llm.extract"),
        "llm.extract_misses": counts["extract_misses"] / units,
        "pipeline.self_us": us_per_call("pipeline.answer"),
        "evaluation.grade_us": us_per_call("evaluation.grade"),
        "evaluation.aggregate_ms": ms_per_unit("evaluation.aggregate"),
        "evaluation.render_ms": ms_per_unit("evaluation.render"),
        "cli.interpreter_ms": 0.0,
        "cli.import_ms": 0.0,
        "runtime.peak_alloc_mb": peak_alloc_mb,
        "runtime.unattributed_ms": (wall - top_level_s) * 1000 / units,
        "runtime.traced_ops_per_s": timings.ops_per_s(),
        "failed_share": failed / attempted,
    }
    for kind in ("lex", "parse", "semantic", "runtime"):
        values[f"cypher.errors.{kind}"] = counts["errors." + kind] / units
    for key in ("task1_prompt_chars", "task2_prompt_chars"):
        values[f"pipeline.{key}"] = counts[key] / units
        values[f"pipeline.{key}.max"] = tracer.maxima.get(key, 0)
    # Layers that the workload runs during set-up, measured there, fastest
    # (or, for a rate, highest) of the set-ups.
    values.update({key: (max if key.endswith("_per_s") else min)(v) for key, v in workload.setup_layers.items()})
    return values


def timed_setup(workload) -> float:
    gc.collect()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def attribution(tracer, units: int, wall: float) -> list[str]:
    """Self time per span name and unit, as a share of the unit's wall time."""
    totals, top_level_s = tracer.self_times()
    unit_ms = wall * 1000 / units
    lines = [f"# attribution per unit ({unit_ms:.3f} ms wall):"]
    for name, (n, seconds) in sorted(totals.items(), key=lambda item: -item[1][1]):
        ms = seconds * 1000 / units
        lines.append(f"#   {name:28s} {ms:12.4f} ms {100 * ms / unit_ms:6.2f}%  {n / units:10.2f} calls")
    rest = (wall - top_level_s) * 1000 / units
    lines.append(f"#   {'unattributed':28s} {rest:12.4f} ms {100 * rest / unit_ms:6.2f}%")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphqa", "__init__.py")):
        print(f"error: no graphqa sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphqa

    if not os.path.abspath(graphqa.__file__).startswith(SRC + os.sep):
        print(f"error: imported graphqa from {graphqa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)

    print("# fingerprint " + json.dumps(fingerprint()))
    workload = WORKLOADS[args.workload](args.seed, goldens)
    # The untraced run spreads its set-ups over the timed loop, so their
    # fastest is not hostage to one slow stretch of the host.
    setup_times = [timed_setup(workload)]
    upfront = workload.setup_reps if args.trace else 1
    while len(setup_times) < upfront:
        setup_times.append(timed_setup(workload))
    workload.prepare()

    tracer = peak_alloc_mb = span_dir = None
    if args.trace:
        setup_layers = {key: list(values) for key, values in workload.setup_layers.items()}
        gc.collect()
        tracemalloc.start()
        workload.setup()
        workload.unit()
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        workload.setup_layers = setup_layers
        if workload.name == "cli-cold":
            workload.trace_startup()
            os.makedirs(OUT, exist_ok=True)
            span_dir = workload.span_dir = tempfile.mkdtemp(prefix="cli-spans-", dir=OUT)
        tracer = workload.tracer = tracing.Tracer()
        tracing.install(tracer)

    timings = Timings()
    attempted = failed = units = 0
    setup_every = args.seconds / workload.setup_reps
    gc.collect()
    start = perf_counter()
    try:
        while True:
            unit_start = perf_counter()
            unit = workload.unit()
            timings.add(unit, perf_counter() - unit_start)
            attempted += unit.attempted
            failed += unit.failed
            units += 1
            elapsed = perf_counter() - start
            if len(setup_times) < workload.setup_reps and elapsed >= setup_every * len(setup_times):
                setup_times.append(timed_setup(workload))
            if (elapsed >= args.seconds and attempted >= MIN_OPS) or elapsed >= HARD_STOP_S:
                break
    finally:
        if span_dir is not None:
            shutil.rmtree(span_dir, ignore_errors=True)
    wall = perf_counter() - start
    while len(setup_times) < workload.setup_reps:
        setup_times.append(timed_setup(workload))

    if args.trace:
        values = per_layer(workload, tracer, timings, units, attempted, failed, wall, peak_alloc_mb)
        wanted = spec["per_layer"]
        for line in attribution(tracer, units, wall):
            print(line)
        if tracer.skipped:
            print("# not traced (missing in this version): " + ", ".join(tracer.skipped))
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(
            os.path.join(OUT, "traces", f"{workload.name}-seed{args.seed}.tsv"),
            {"workload": workload.name, "seed": args.seed, "units": units, "wall_s": wall},
        )
    else:
        values = end_to_end(workload, setup_times, timings)
        wanted = spec["end_to_end"]

    print(f"# {workload.name}: {attempted} operations in {units} {workload.unit_name}(s), {wall:.3f} s timed; "
          f"{len(timings.op_keys)} latency samples; {len(setup_times)} set-ups; failed_share {failed / attempted:.6f}")
    print(f"# digest {workload.name} seed {args.seed}: {workload.digest()}")
    for message, count in list(workload.problems.items())[:20]:
        print(f"# problem (x{count}): {message}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:36s} {value:16.6f} {metric['unit']}")
    correct = failed == 0 and not workload.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
