"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/all.py [--seed N] [--seconds S]

Run it from the root of a checkout. Each run is one ``run.py`` process, so
the numbers are those the single runs report. Traced ``runtime.traced_ops_per_s``
sits beside untraced ``ops_per_s``; their ratio is the tracing overhead. Exits
with the worst exit code of the runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True)
            worst = max(worst, done.returncode)
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} trace={trace}: no result (exit {done.returncode})\n{done.stderr}")
                continue
            for line in lines[:-1]:
                if line.startswith("# digest") or line.startswith("# problem"):
                    print(line)
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {workload:14s} {name:36s} {metric['value']:16.6f} {metric['unit']}")
    sys.exit(worst)
