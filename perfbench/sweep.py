"""One-shot scaling sweep: how two reference queries grow with the graph.

    python3 perfbench/sweep.py

Informational and not gated. It times the corpus closest-pair reference query
and the corpus 1-hop count (tower 8) on generated graphs of 13 towers / 121
sensors (the shipped size), 100 / 2,000 and 400 / 20,000, and prints the
median of a few runs of each. The 400-tower closest-pair case is kept out of
the gated workloads because a single run of it takes seconds.
"""

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from graphqa import data_path, evaluation  # noqa: E402
from graphqa.graph import GeneratorConfig, dataset_to_graph, generate_msa_fixture  # noqa: E402
from workloads import run_query  # noqa: E402

SIZES = [(13, 121), (100, 2000), (400, 20000)]
QUERY_IDS = {"closest-pair": "closest-towers", "1-hop count": "sensor-count-tower-8"}

if __name__ == "__main__":
    specs = {spec.id: spec for spec in evaluation.load_corpus(data_path("corpus.json"))}
    print(f"{'query':14s} {'towers':>7s} {'rels':>7s} {'median ms':>11s} runs")
    for towers, sensors in SIZES:
        graph = dataset_to_graph(generate_msa_fixture(GeneratorConfig(tower_count=towers, attached_sensors=sensors)))
        for label, spec_id in QUERY_IDS.items():
            runs = 3 if towers * towers > 100_000 else 7
            times = [run_query(graph, specs[spec_id].ground_truth_query)[0] * 1000 for _ in range(runs)]
            print(f"{label:14s} {towers:7d} {sensors:7d} {statistics.median(times):11.3f} {runs}")
