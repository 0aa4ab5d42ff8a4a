"""Record the reference outcomes the benchmark checks trials against.

    python3 bench/make_reference.py

Runs every cell of every workload for trial seeds 0 to SEEDS - 1 through
the same code path the benchmark times, and writes the bit-exact
(final_error, evals_used) of each trial to ``bench/reference.json``.
Rerun it only when a change is meant to alter outcomes.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from worker import BENCH_DIR, run_trial
from workloads import REFERENCE_PATH, WORKLOADS, outcome_fingerprint

# covers the trial seeds of a default-seed run with room for a faster program
SEEDS = 48


def main() -> None:
    outcomes = {}
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        for workload in WORKLOADS.values():
            for cell in workload.cells:
                outcomes[cell.key] = {
                    str(seed): outcome_fingerprint(run_trial(cell, seed, Path(tmp))[0])
                    for seed in range(SEEDS)
                }
                print(cell.key, flush=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"seeds": [0, SEEDS - 1], "outcomes": outcomes}, indent=1) + "\n")


if __name__ == "__main__":
    main()
