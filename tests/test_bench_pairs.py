"""``tools/bench_pairs.py`` summarizes paired runs in the shape of the shipped ``BENCH_*.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_bench_18():
    recorded = json.loads((ROOT / "BENCH_18.json").read_text())
    for workload, summary in recorded["summary"].items():
        runs = [run for run in recorded["runs"] if run["workload"] == workload]
        got = bench_pairs.summarize(runs, METRICS)
        # BENCH_18.json predates gain_shown; every other field must match.
        shown = {name: metric.pop("gain_shown") for name, metric in got["metrics"].items()}
        assert got == summary, workload
        if workload == "ingest-lookup":  # its claim: latency_p50_ms, 10 of 10, -13.9% against a 9.5% spread
            assert shown["latency_p50_ms"]


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


def _pairs(parent: list[float], change: list[float]) -> dict:
    runs = [run(pair, "parent", value) for pair, value in enumerate(parent, start=1)]
    runs += [run(pair, "change", value) for pair, value in enumerate(change, start=1)]
    return bench_pairs.summarize(runs, METRICS)["metrics"]


# Ten parent runs with quartiles 10.0 and 11.0 under the inclusive method,
# so an interquartile range of 1.0 around a median of 10.5.
PARENT = [9.0, 10.0, 10.0, 10.0, 10.5, 10.5, 11.0, 11.0, 11.0, 12.0]


@pytest.mark.parametrize(
    "change, shown",
    [
        ([8.0] * 9 + [13.0], True),  # 9 of 10 wins, medians 2.5 apart
        ([8.0] * 8 + [13.0, 13.0], False),  # 8 of 10 wins
        ([x - 0.5 for x in PARENT], False),  # 10 of 10 wins, medians 0.5 apart
        ([8.0] * 8 + [11.0, 12.0], False),  # 8 wins and 2 ties, which count for neither side
    ],
    ids=["nine-of-ten-beyond-spread", "eight-of-ten", "ten-of-ten-inside-spread", "ties"],
)
def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_spread(change, shown):
    metrics = _pairs(PARENT, change)
    assert bench_pairs.quartiles(PARENT) == [10.0, 11.0]
    # Lower is better for latency; for throughput the same values are a loss.
    assert metrics["latency_p50_ms"]["gain_shown"] is shown
    assert metrics["ops_per_s"]["gain_shown"] is False
    mirrored = _pairs([-x for x in PARENT], [-x for x in change])
    assert mirrored["ops_per_s"]["gain_shown"] is shown


def test_a_tree_holding_bytecode_is_refused_and_kept(tmp_path, capsys):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    cache = tmp_path / "change" / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "module.cpython-311.pyc").write_bytes(b"")
    out = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([*argv, "--seed", "1", "--workloads", "replay-eval", "--out", str(out)])
    assert exit_info.value.code == 2
    assert str(cache) in capsys.readouterr().err
    assert (cache / "module.cpython-311.pyc").exists() and not out.exists()
