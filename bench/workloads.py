"""Workload definitions and the correctness checks applied to every trial.

This module imports nothing from ``bareopt`` so that ``run.py`` can read the
workload list without paying for the numpy/scipy import.

A workload is a list of cells; one round runs one trial per cell, and trial
``i`` of a cell uses seed ``seed + i``, the seeding ``run_experiment`` uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# final_error at or below this counts as a success, as in the acceptance battery
SUCCESS_THRESHOLD = 1e-8
# log10 of final errors is floored here before averaging
ERROR_FLOOR = 1e-8
GRID_FUNCTIONS = ("F1", "F2", "F7", "F8")


@dataclass(frozen=True)
class Cell:
    """One (algorithm, function, dim, budget) combination of a workload.

    A ``diagnose`` cell runs through ``record_run`` and the diagnostics
    exports; any other cell runs through ``run_experiment``.
    """

    algorithm: str
    function: str
    dim: int
    max_fes: int
    overrides: dict = field(default_factory=dict)
    diagnose: bool = False

    @property
    def label(self) -> str:
        return f"{self.algorithm}.{self.function}.{self.dim}"

    @property
    def key(self) -> str:
        """Reference-table key: every parameter that changes an outcome."""
        opts = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        mode = "record_run" if self.diagnose else "run_experiment"
        return f"{self.label}/{self.max_fes}/{opts}/{mode}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bip_grid",
            "bip on F1, F2, F7, F8 at dim 10 (criteria 1 and 3 cells, desk "
            "budget). 15-point sweeps, so call overhead in bip and records "
            "dominates; F7 stops early, the rest use the budget.",
            tuple(Cell("bip", f, 10, 20_000) for f in GRID_FUNCTIONS),
        ),
        Workload(
            "baseline_grid",
            "bbpso, bbfwa and gbde on the same functions at dim 30, batches "
            "of 20, 300 and 100 points. No bip code runs, so a bip-only change "
            "should not move it; objective kernels and records should.",
            tuple(Cell(a, f, 30, 30_000)
                  for a in ("bbpso", "bbfwa", "gbde") for f in GRID_FUNCTIONS),
        ),
        Workload(
            "diagnose",
            "record_run with the per-evaluation callback, then wave_modulus, "
            "transmission_trace and export_events_csv. The same step code as "
            "the grids plus event capture and file writing.",
            (
                # the acceptance criterion 6 protocol
                Cell("bip", "double_well", 2, 2_000, {"k": 5}, diagnose=True),
                Cell("bip", "F7", 10, 10_000, diagnose=True),
                Cell("gbde", "F2", 10, 10_000, diagnose=True),
            ),
        ),
    )
}


def load_reference(path=REFERENCE_PATH) -> dict:
    """Reference outcomes: {cell key: {seed: [final_error.hex(), evals_used]}}."""
    with open(path) as fh:
        return json.load(fh)["outcomes"]


def outcome_fingerprint(outcome) -> list:
    """Bit-exact (final_error, evals_used) pair as stored in the reference."""
    return [float(outcome.final_error).hex(), int(outcome.evals_used)]


def check_outcome(cell: Cell, seed: int, outcome, lower, upper,
                  reference: dict) -> str | None:
    """Return why a trial's outcome is wrong, or None when it is fine."""
    if (outcome.algorithm, outcome.dim, outcome.seed) != (cell.algorithm, cell.dim, seed):
        return "outcome reports another algorithm, dim or seed"
    evals = outcome.evals_used
    if evals > cell.max_fes:
        return f"used {evals} evaluations over a budget of {cell.max_fes}"
    if evals >= 1 and math.isnan(outcome.final_error):
        return "final error is NaN after evaluating"
    pos = outcome.best_position
    if pos is not None and (pos.shape != lower.shape
                            or (pos < lower).any() or (pos > upper).any()):
        return "best_position lies outside the box"
    trace = outcome.error_trace
    if evals >= 1:
        if not trace or trace[-1][0] != evals:
            return "error_trace does not end at evals_used"
        for (i0, e0), (i1, e1) in zip(trace, trace[1:]):
            if i1 <= i0 or e1 > e0:
                return "error_trace is not monotone"
    expected = reference.get(cell.key, {}).get(str(seed))
    if expected is not None and outcome_fingerprint(outcome) != expected:
        return (f"(final_error, evals_used) = {outcome_fingerprint(outcome)} "
                f"differs from the reference {expected}")
    return None
