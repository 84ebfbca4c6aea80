#!/usr/bin/env python3
"""Paired benchmark runs of two source trees: a parent and a change.

    python tools/bench_pairs.py --parent DIR --change DIR --seed N \\
        --workloads ingest-lookup,engine-scaled --pairs 10 --seconds 25 --out BENCH_<n>.json

Each tree is a full checkout, or a copy of its tracked files (for example
``git archive <rev> | tar -x -C DIR``). For every workload the script runs
``perfbench/run.py --trace 0`` in both trees, one run at a time, ``--pairs``
times, the parent first in odd pairs and the change first in even ones, so a
slow stretch of the host falls on both sides. Runs use
``PYTHONDONTWRITEBYTECODE=1`` so neither tree gains bytecode files, and each
run record says so under ``env``. A copy of tracked files holds no
``__pycache__``, so cli-cold, which starts a fresh interpreter per
``graphqa ask``, compiles every module it imports on each invocation: its
figures include that compilation. Python still reads a ``.pyc`` file that
exists, even under ``PYTHONDONTWRITEBYTECODE``, so a tree with a
``__pycache__`` directory under ``src/`` is refused, with the directory
named; the script deletes nothing.

The output keeps every run (its environment, fingerprint, digest, return
code, wall time and final JSON line) and, per workload, a summary: whether
the digests of both sides agree, each side's attempted operations, and per
end-to-end metric of the change tree's ``BENCHMARK.json`` each side's median
and quartiles, the pairs the change won, the share by which the change's
median is worse (a negative share is a gain) and the parent's interquartile
range as a share of its median. A metric whose parent spread is wider than
its bound is ``unresolved``; otherwise it is ``within bound`` or ``worse than
bound``. ``gain_shown`` says whether the runs show a gain: the change won
at least 9 of every 10 pairs (a tie counts for neither side), and its
median is better than the parent's by more than the parent's interquartile
range. The file is rewritten after every run, so an interrupted session
keeps what ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
# Set for every run, on top of the caller's environment; see the docstring.
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: what its output reports."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=os.environ | RUN_ENV, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    record = {
        "env": dict(RUN_ENV),
        "returncode": done.returncode,
        "wall_s": round(wall, 1),
        "fingerprint": None,
        "digest": None,
    }
    for line in lines:
        if line.startswith("# fingerprint "):
            record["fingerprint"] = json.loads(line[len("# fingerprint ") :])
        elif line.startswith("# digest "):
            record["digest"] = line.rsplit(": ", 1)[1]
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = done.stderr[-2000:]
    return record


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return [low, high]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-side medians and quartiles and wins per metric, for one workload."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    summary = {
        "pairs": len(pairs),
        "digests_equal": len({run["digest"] for run in runs}) == 1,
        "correct": all(run["result"] is not None and run["result"]["correct"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs if run["result"] is not None),
        "attempted": {side: [pair[side]["attempted"] for pair in pairs] for side in SIDES},
        "returncodes": sorted({run["returncode"] for run in runs}),
        "metrics": {},
    }
    if not pairs:
        return summary
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        parent, change = (statistics.median(values[side]) for side in SIDES)
        low, high = quartiles(values["parent"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        worse_by = ((change - parent) if lower else (parent - change)) / parent if parent else 0.0
        better_by = (parent - change) if lower else (change - parent)
        iqr_share = (high - low) / parent if parent else 0.0
        if iqr_share > bound:
            verdict = "unresolved (parent spread wider than bound)"
        else:
            verdict = "within bound" if worse_by <= bound else "worse than bound"
        summary["metrics"][name] = {
            "parent_median": parent,
            "parent_quartiles": [low, high],
            "change_median": change,
            "change_quartiles": quartiles(values["change"]),
            "change_wins": wins,
            "change_worse_by": round(worse_by, 4),
            "bound": bound,
            "parent_iqr_share": round(iqr_share, 4),
            "verdict": verdict,
            "gain_shown": 10 * wins >= 9 * len(pairs) and better_by > high - low,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="source tree of the parent")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
        for directory, subdirectories, _ in os.walk(os.path.join(tree, "src")):
            if "__pycache__" in subdirectories:
                parser.error(f"{os.path.join(directory, '__pycache__')} holds bytecode that runs would read")
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    workloads = args.workloads.split(",")
    report = {
        "benchmark": (
            f"perfbench/run.py --trace 0 --seconds {args.seconds:g} --seed {args.seed}, parent vs change, "
            f"alternating which side runs first (parent first in odd pairs), {args.pairs} pairs per workload"
        ),
        "note": "",  # for the author: what ran where, and what the runs show
        "summary": {},
        "runs": [],
    }
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                record = run_once(trees[side], workload, args.seed, args.seconds)
                report["runs"].append(
                    {"workload": workload, "seed": args.seed, "pair": pair, "side": side, "first": position == 0}
                    | record
                )
                runs = [run for run in report["runs"] if run["workload"] == workload]
                report["summary"][workload] = summarize(runs, metrics)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=1)
                    fh.write("\n")
                print(f"{workload} pair {pair} {side}: exit {record['returncode']}, {record['wall_s']} s", flush=True)
    failed = any(
        not summary["correct"] or not summary["digests_equal"] or summary["returncodes"] != [0]
        for summary in report["summary"].values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
