"""Write ``goldens.json``: digests of every workload's outputs at this commit.

    python3 perfbench/freeze.py

Run it from the root of a checkout whose answers are trusted, and only then:
the benchmark fails any later run whose outputs differ from these digests.
Seed-dependent goldens (engine-scaled, ingest-lookup) are taken on
``workloads.DEFAULT_SEED``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

if __name__ == "__main__":
    goldens = {"seed": DEFAULT_SEED}
    for name, cls in WORKLOADS.items():
        goldens[name] = cls(DEFAULT_SEED, {}).freeze()
        print(f"{name}: {len(goldens[name])} digests")
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
