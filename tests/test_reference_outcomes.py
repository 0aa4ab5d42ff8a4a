"""Pin bip outcomes bit for bit to the benchmark's reference table.

``bench/reference.json`` holds the exact (final_error, evals_used) of every
benchmark cell for trial seeds 0-47.  Replaying a few of them here makes
every test run check that a refactor of the sweep left the outcomes alone.
The table is only read; ``bench/make_reference.py`` re-records it when a
change is meant to alter outcomes.
"""

import json
from pathlib import Path

import pytest

from bareopt.diagnostics import record_run
from bareopt.harness import run_experiment

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
SEEDS = (0, 1)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["outcomes"]


def fingerprint(outcome):
    return [float(outcome.final_error).hex(), int(outcome.evals_used)]


@pytest.mark.parametrize("function", ["F1", "F2", "F7", "F8"])
def test_grid_cells_match_the_reference(reference, function):
    expected = reference[f"bip.{function}.10/20000//run_experiment"]
    outcomes = run_experiment("bip", function, 10, n_trials=len(SEEDS),
                              max_fes=20_000, base_seed=SEEDS[0])
    assert [fingerprint(o) for o in outcomes] == [expected[str(s)] for s in SEEDS]


@pytest.mark.parametrize("function, dim, max_fes, overrides, key", [
    ("double_well", 2, 2_000, {"k": 5}, "bip.double_well.2/2000/k=5/record_run"),
    ("F7", 10, 10_000, None, "bip.F7.10/10000//record_run"),
])
def test_event_capture_runs_match_the_reference(reference, function, dim,
                                                max_fes, overrides, key):
    # the per-evaluation callback takes its own branch through BipRun.step
    for seed in SEEDS:
        outcome, _ = record_run("bip", function, dim, max_fes=max_fes,
                                seed=seed, overrides=overrides)
        assert fingerprint(outcome) == reference[key][str(seed)]
