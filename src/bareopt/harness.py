"""Experiment harness: seeded trials, aggregate statistics, rank tables, IO.

A trial is one (algorithm, function, dim, seed) run.  An experiment is a
grid of trials with per-trial seeds base_seed + trial_index, so results are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import csv
import math
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from .baselines import BbfwaRun, BbpsoRun, GbdeRun
from .benchmarks import BudgetedObjective, get_objective
from .bip import BipRun
from .records import TrialOutcome

__all__ = [
    "ALGORITHMS",
    "REGISTRY",
    "build_config",
    "MULTIMODAL_FUNCTIONS",
    "UNIMODAL_FUNCTIONS",
    "AggregateStats",
    "RankingTable",
    "run_single",
    "run_experiment",
    "aggregate",
    "rank_algorithms",
    "write_trials_csv",
    "read_trials_csv",
    "summary_dict",
    "software_versions",
    "TRIAL_CSV_COLUMNS",
    "SUMMARY_SCHEMA_VERSION",
]

# algorithm name -> run class, which names its config class; the order is
# ALGORITHMS'
REGISTRY = {run.algorithm: run for run in (BipRun, BbpsoRun, BbfwaRun, GbdeRun)}
ALGORITHMS = tuple(REGISTRY)
MULTIMODAL_FUNCTIONS = tuple(f"F{i}" for i in range(1, 7))
UNIMODAL_FUNCTIONS = tuple(f"F{i}" for i in range(7, 13))

TRIAL_CSV_COLUMNS = (
    "algorithm", "function", "dim", "seed", "final_error", "evals_used", "succeeded",
)
SUMMARY_SCHEMA_VERSION = 1


def build_config(algorithm: str, seed: int, success_threshold: float,
                 overrides: dict | None):
    """The config of one trial: defaults, then ``overrides``, the seed and
    (unless overridden) the success threshold."""
    if algorithm not in REGISTRY:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    cls = REGISTRY[algorithm].config_class
    kwargs = dict(overrides or {})
    bad = set(kwargs) - {f for f in cls.__dataclass_fields__}
    if bad:
        raise ValueError(f"unknown {algorithm} options: {sorted(bad)}")
    kwargs["seed"] = seed
    kwargs.setdefault("success_threshold", success_threshold)
    return cls(**kwargs)


def run_single(
    algorithm: str,
    function: str,
    dim: int,
    *,
    max_fes: int,
    seed: int,
    success_threshold: float = 1e-8,
    overrides: dict | None = None,
    init_position=None,
    events=None,
) -> TrialOutcome:
    """Run one seeded trial and return its outcome.

    ``overrides`` maps config field names of the chosen algorithm to values.
    ``init_position`` starts every particle at a fixed point and is only
    meaningful for the multi-scale sampler.  ``events`` is None or an
    ``EventLog`` that the run hands its events to.
    """
    config = build_config(algorithm, seed, success_threshold, overrides)
    kwargs = {}
    if init_position is not None:
        if algorithm != "bip":
            raise ValueError("init_position is only supported by bip")
        kwargs["init_position"] = init_position
    spec = get_objective(function, dim)
    objective = BudgetedObjective(spec, max_fes)
    return REGISTRY[algorithm](objective, config, events=events, **kwargs).run()


def run_experiment(
    algorithm: str,
    function: str,
    dim: int,
    *,
    n_trials: int,
    max_fes: int,
    base_seed: int = 1,
    success_threshold: float = 1e-8,
    overrides: dict | None = None,
    workers: int = 1,
) -> list[TrialOutcome]:
    """Run n_trials seeded trials of one grid cell, in trial order.

    Trial i uses seed base_seed + i; the trials run one after another on the
    calling thread.  ``workers`` has no effect and stays only because the
    benchmark worker (``bench/worker.py``) still passes it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    return [run_single(algorithm, function, dim, max_fes=max_fes, seed=base_seed + i,
                       success_threshold=success_threshold, overrides=overrides)
            for i in range(n_trials)]


@dataclass(frozen=True)
class AggregateStats:
    """Best/mean/std of final errors plus success rate over one cell."""

    best: float
    mean: float
    std: float
    sr: float
    n_trials: int


def aggregate(outcomes: list[TrialOutcome],
              success_threshold: float = 1e-8) -> AggregateStats:
    """Summarize one cell of trials.

    Requires a non-empty, homogeneous cell (same algorithm, function, dim).
    ``std`` uses n-1 normalization and is 0 for a single trial.  ``sr`` is
    the fraction of trials with final_error at or below the threshold.
    """
    if not outcomes:
        raise ValueError("cannot aggregate zero trials")
    cells = {(o.algorithm, o.function, o.dim) for o in outcomes}
    if len(cells) != 1:
        raise ValueError(f"mixed cells in aggregate: {sorted(cells)}")
    errors = np.array([o.final_error for o in outcomes], dtype=float)
    n = errors.size
    std = float(errors.std(ddof=1)) if n > 1 else 0.0
    sr = float(np.mean(errors <= success_threshold))
    return AggregateStats(
        best=float(errors.min()),
        mean=float(errors.mean()),
        std=std,
        sr=sr,
        n_trials=n,
    )


@dataclass(frozen=True)
class RankingTable:
    """Per-function ranks (1 = best mean error, ties averaged) and the
    per-algorithm average rank over the function group."""

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    ranks: dict
    average: dict

    def as_dict(self) -> dict:
        return {
            "algorithms": list(self.algorithms),
            "functions": list(self.functions),
            "ranks": {f: dict(self.ranks[f]) for f in self.functions},
            "average_rank": dict(self.average),
        }


def _average_ranks(values) -> list[float]:
    """1-based ranks, lowest first, with tied values sharing their mean rank.

    A value's rank is the count of values below it plus half of (the count
    of values equal to it + 1), as ``scipy.stats.rankdata(method="average")``
    gives it.  NaN ranks after every number, +inf included, and the NaNs tie.
    """
    keys = [(True, 0.0) if math.isnan(v) else (False, v) for v in map(float, values)]
    return [sum(k < key for k in keys) + (sum(k == key for k in keys) + 1) / 2
            for key in keys]


def rank_algorithms(stats: dict, group) -> RankingTable:
    """Average-rank comparison over a function group.

    ``stats`` maps (algorithm, function) to AggregateStats or a raw mean
    error.  Every algorithm must cover every function in ``group``; a
    missing cell raises.  Lower mean error ranks better, a NaN mean ranks
    worst; exact ties share the averaged rank.
    """
    group = tuple(group)
    if not group:
        raise ValueError("function group is empty")
    algorithms = []
    for algo, _fn in stats:
        if algo not in algorithms:
            algorithms.append(algo)
    if not algorithms:
        raise ValueError("stats is empty")
    ranks: dict = {}
    totals = {a: 0.0 for a in algorithms}
    for fn in group:
        means = []
        for algo in algorithms:
            if (algo, fn) not in stats:
                raise ValueError(f"missing cell ({algo}, {fn}) in stats")
            cell = stats[(algo, fn)]
            means.append(float(getattr(cell, "mean", cell)))
        ranks[fn] = dict(zip(algorithms, _average_ranks(means)))
        for a, r in ranks[fn].items():
            totals[a] += r
    average = {a: totals[a] / len(group) for a in algorithms}
    return RankingTable(
        algorithms=tuple(algorithms),
        functions=group,
        ranks=ranks,
        average=average,
    )


# --- file formats -------------------------------------------------------------


def write_trials_csv(path, outcomes: list[TrialOutcome]) -> None:
    """Write per-trial rows with the fixed column set."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_COLUMNS)
        for o in outcomes:
            writer.writerow([
                o.algorithm, o.function, o.dim, o.seed,
                str(o.final_error), o.evals_used,
                "true" if o.succeeded else "false",
            ])


def read_trials_csv(path) -> list[dict]:
    """Parse a trials CSV back into typed rows.

    A malformed header or row raises ValueError naming the 1-based line.
    """
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if tuple(header) != TRIAL_CSV_COLUMNS:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(TRIAL_CSV_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRIAL_CSV_COLUMNS):
                raise ValueError(
                    f"{path}: line {lineno}: expected "
                    f"{len(TRIAL_CSV_COLUMNS)} fields, got {len(row)}"
                )
            try:
                rows.append({
                    "algorithm": row[0],
                    "function": row[1],
                    "dim": int(row[2]),
                    "seed": int(row[3]),
                    "final_error": float(row[4]),
                    "evals_used": int(row[5]),
                    "succeeded": row[6].strip().lower() == "true",
                })
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def software_versions() -> dict:
    """The software that produced a result, as every output file records it."""
    from . import __version__
    # the last bits of np.exp and friends depend on the SIMD targets numpy runs
    return {"bareopt": __version__, "numpy": np.__version__,
            "numpy_simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
            "python": platform.python_version()}


def summary_dict(cell_stats: dict, rankings: dict | None = None, *,
                 success_threshold: float, max_fes, n_trials, base_seed,
                 cell_max_fes: dict) -> dict:
    """Versioned JSON-ready summary of an experiment.

    ``cell_stats`` maps (algorithm, function, dim) to AggregateStats;
    ``rankings`` maps a label to a RankingTable.  ``max_fes`` is the budget
    as requested (None when it defaulted per dim); ``cell_max_fes`` maps
    each cell to the budget it actually ran with.
    ``versions`` names the software that produced the numbers.
    """
    cells = []
    for (algo, fn, dim), stats in cell_stats.items():
        cells.append({
            "algorithm": algo,
            "function": fn,
            "dim": dim,
            "max_fes": cell_max_fes[(algo, fn, dim)],
            "best": stats.best,
            "mean": stats.mean,
            "std": stats.std,
            "sr": stats.sr,
            "n_trials": stats.n_trials,
        })
    out = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "success_threshold": success_threshold,
        "max_fes": max_fes,
        "n_trials": n_trials,
        "base_seed": base_seed,
        "versions": software_versions(),
        "cells": cells,
    }
    if rankings:
        out["rankings"] = {label: t.as_dict() for label, t in rankings.items()}
    return out
