"""``tools/bench_pairs.py`` summarizes paired runs in the shape of the shipped ``BENCH_*.json``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_bench_18():
    recorded = json.loads((ROOT / "BENCH_18.json").read_text())
    for workload, summary in recorded["summary"].items():
        runs = [run for run in recorded["runs"] if run["workload"] == workload]
        assert bench_pairs.summarize(runs, METRICS) == summary, workload


def run(pair, side, value, digest="d"):
    metrics = {metric["name"]: {"value": value, "unit": metric["unit"]} for metric in METRICS}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"workload": "w", "pair": pair, "side": side, "returncode": 0, "digest": digest, "result": result}


def test_verdicts_and_wins():
    # The change doubles every metric: worse where lower is better, a gain
    # where higher is better.
    runs = [run(pair, "parent", 1.0 + pair / 1000) for pair in range(1, 5)]
    runs += [run(pair, "change", 2.0) for pair in range(1, 5)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["pairs"] == 4 and summary["digests_equal"] and summary["correct"]
    latency, throughput = summary["metrics"]["latency_p90_ms"], summary["metrics"]["ops_per_s"]
    assert (latency["change_wins"], latency["verdict"]) == (0, "worse than bound")
    assert (throughput["change_wins"], throughput["verdict"]) == (4, "within bound")
    assert throughput["change_worse_by"] < 0


def test_an_unfinished_pair_and_a_failed_run_are_reported():
    runs = [run(1, "parent", 1.0), run(1, "change", 1.0, digest="other"), run(2, "parent", 1.0)]
    runs.append({"workload": "w", "pair": 2, "side": "change", "returncode": 2, "digest": None, "result": None})
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["pairs"] == 1
    assert not summary["digests_equal"] and not summary["correct"]
    assert summary["returncodes"] == [0, 2]
