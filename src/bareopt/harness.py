"""Experiment harness: seeded trials, aggregate statistics, rankings, IO.

A trial is one (algorithm, function, dim, seed) run.  An experiment is a
grid of trials with per-trial seeds base_seed + trial_index, run serially
in trial order, so results are reproducible.  ``read_trials_csv`` returns the
outcomes of a trials CSV with its columns only: no config, trace or best point.
"""

from __future__ import annotations

import csv
import math
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from .baselines import DEFAULT_SUCCESS_THRESHOLD, BbfwaRun, BbpsoRun, GbdeRun
from .benchmarks import BudgetedObjective, get_objective
from .bip import BipRun
from .records import TrialOutcome

__all__ = [
    "ALGORITHMS",
    "REGISTRY",
    "build_config",
    "trial_budget",
    "FUNCTION_GROUPS",
    "run_single",
    "run_experiment",
    "aggregate",
    "rank_algorithms",
    "rank_cells",
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
# the named function groups, ranked by ``experiment`` and read by ``rank --group``
FUNCTION_GROUPS = {"multimodal": tuple(f"F{i}" for i in range(1, 7)),
                   "unimodal": tuple(f"F{i}" for i in range(7, 13))}
SUMMARY_SCHEMA_VERSION = 1


def build_config(algorithm: str, seed: int, overrides: dict | None):
    """The config of one trial: defaults, then ``overrides``, then the seed.
    The seed and the run's success threshold may not be overridden."""
    if algorithm not in REGISTRY:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    cls = REGISTRY[algorithm].config_class
    kwargs = overrides or {}
    if {"seed", "success_threshold"} & kwargs.keys():
        raise ValueError("pass seed and success_threshold as arguments, not in overrides")
    bad = set(kwargs) - {f for f in cls.__dataclass_fields__}
    if bad:
        raise ValueError(f"unknown {algorithm} options: {sorted(bad)}")
    return cls(**kwargs, seed=seed)


def trial_budget(max_fes: int | None, dim: int) -> int:
    """The evaluation budget of a trial: ``max_fes`` as requested, or else
    the default of 10000 evaluations per dimension."""
    return 10000 * dim if max_fes is None else max_fes


def run_single(
    algorithm: str,
    function: str,
    dim: int,
    *,
    max_fes: int,
    seed: int,
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD,
    overrides: dict | None = None,
    events=None,
) -> TrialOutcome:
    """Run one seeded trial and return its outcome.

    ``overrides`` maps config field names of the chosen algorithm to values.
    ``events`` is None or an ``EventLog`` that the run hands its events to.
    """
    config = build_config(algorithm, seed, overrides)
    objective = BudgetedObjective(get_objective(function, dim), max_fes)
    return REGISTRY[algorithm](objective, config, success_threshold=success_threshold,
                               events=events).run()


def run_experiment(
    algorithm: str,
    function: str,
    dim: int,
    *,
    n_trials: int,
    max_fes: int,
    base_seed: int = 1,
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD,
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


def aggregate(outcomes: list[TrialOutcome]) -> dict:
    """Summarize one cell of trials as ``summary.json`` holds it:
    ``{"best", "mean", "std", "sr", "n_trials"}``, in that order.

    ``best``, ``mean`` and ``std`` are of the final errors, ``std`` with n-1
    normalization and 0 for a single trial; ``sr`` is the fraction of trials
    that succeeded, each at its own run's threshold.  Requires a non-empty,
    homogeneous cell (same algorithm, function, dim).
    """
    if not outcomes:
        raise ValueError("cannot aggregate zero trials")
    cells = {(o.algorithm, o.function, o.dim) for o in outcomes}
    if len(cells) != 1:
        raise ValueError(f"mixed cells in aggregate: {sorted(cells)}")
    errors = np.array([o.final_error for o in outcomes], dtype=float)
    n = errors.size
    # an inf error, or a sum past the float range, gives inf or NaN, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        mean = float(errors.mean())
        std = float(errors.std(ddof=1)) if n > 1 else 0.0
    return {"best": float(errors.min()), "mean": mean, "std": std,
            "sr": float(np.mean([o.succeeded for o in outcomes])), "n_trials": n}


def _average_ranks(values) -> list[float]:
    """1-based ranks, lowest first, with tied values sharing their mean rank.

    A value's rank is the count of values below it plus half of (the count
    of values equal to it + 1), as ``scipy.stats.rankdata(method="average")``
    gives it.  NaN ranks after every number, +inf included, and the NaNs tie.
    """
    keys = [(True, 0.0) if math.isnan(v) else (False, v) for v in map(float, values)]
    return [sum(k < key for k in keys) + (sum(k == key for k in keys) + 1) / 2
            for key in keys]


def rank_algorithms(means: dict, group) -> dict:
    """Average-rank comparison over a function group.

    ``means`` maps (algorithm, function) to that cell's mean error.  Every
    algorithm must cover every function in ``group``; a missing cell raises.
    Lower mean error ranks better, a NaN mean ranks worst; exact ties share
    the averaged rank.  Returns the ranking as ``summary.json`` and
    ``ranks.json`` hold it: ``{"algorithms": [...], "functions": [...],
    "ranks": {function: {algorithm: rank}}, "average_rank": {algorithm: rank}}``.
    """
    group = list(group)
    if not group:
        raise ValueError("function group is empty")
    algorithms = list(dict.fromkeys(algo for algo, _fn in means))
    if not algorithms:
        raise ValueError("no means to rank")
    ranks: dict = {}
    for fn in group:
        for algo in algorithms:
            if (algo, fn) not in means:
                raise ValueError(f"{algo} has no mean error on {fn}")
        ranks[fn] = dict(zip(algorithms, _average_ranks([means[a, fn] for a in algorithms])))
    average = {a: sum(ranks[fn][a] for fn in group) / len(group) for a in algorithms}
    return {"algorithms": algorithms, "functions": group, "ranks": ranks,
            "average_rank": average}


def rank_cells(cells: dict, dim: int, group) -> dict:
    """``rank_algorithms`` over the cells of one dimension, each by its
    ``aggregate`` mean; ``cells`` maps (algorithm, function, dim) to that
    cell's TrialOutcome list."""
    return rank_algorithms({(algo, fn): aggregate(outcomes)["mean"]
                            for (algo, fn, d), outcomes in cells.items() if d == dim}, group)


# --- file formats -------------------------------------------------------------


def _read_flag(text: str) -> bool:
    flag = text.strip().lower()
    if flag not in ("true", "false"):
        raise ValueError(f"succeeded must be true or false, got {text!r}")
    return flag == "true"


# the columns of trials.csv in order: (TrialOutcome field, write, read)
_TRIAL_CSV = (
    ("algorithm", str, str),
    ("function", str, str),
    ("dim", str, int),
    ("seed", str, int),
    ("final_error", str, float),
    ("evals_used", str, int),
    ("succeeded", lambda v: "true" if v else "false", _read_flag),
)
TRIAL_CSV_COLUMNS = tuple(name for name, _, _ in _TRIAL_CSV)


def write_trials_csv(path, outcomes: list[TrialOutcome]) -> None:
    """Write one row per trial, in the columns of ``TRIAL_CSV_COLUMNS``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_COLUMNS)
        writer.writerows([write(getattr(o, name)) for name, write, _ in _TRIAL_CSV]
                         for o in outcomes)


def read_trials_csv(path) -> list[TrialOutcome]:
    """Parse a trials CSV back into one TrialOutcome per row, of its columns
    alone.  A malformed header or row raises ValueError naming the 1-based
    physical line it ends on (a quoted field may hold a newline).
    """
    path = Path(path)
    outcomes = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if tuple(header) != TRIAL_CSV_COLUMNS:
                raise ValueError(
                    f"{path}: line 1: expected header {','.join(TRIAL_CSV_COLUMNS)}"
                )
            for row in reader:
                if len(row) != len(TRIAL_CSV_COLUMNS):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected "
                        f"{len(TRIAL_CSV_COLUMNS)} fields, got {len(row)}"
                    )
                try:
                    outcomes.append(TrialOutcome(**{
                        name: read(text) for (name, _, read), text in zip(_TRIAL_CSV, row)}))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except csv.Error as exc:  # a row the csv module cannot split
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return outcomes


def software_versions() -> dict:
    """The software that produced a result, as every output file records it."""
    from . import __version__
    # the last bits of np.exp and friends depend on the SIMD targets numpy runs
    return {"bareopt": __version__, "numpy": np.__version__,
            "numpy_simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
            "python": platform.python_version()}


def summary_dict(cells: dict, rankings: dict, *,
                 success_threshold: float, max_fes, n_trials, base_seed) -> dict:
    """Versioned JSON-ready summary of an experiment.

    ``cells`` maps (algorithm, function, dim) to that cell's TrialOutcome
    list; each summary cell holds its ``aggregate`` statistics and the
    ``config`` its trials ran with, without the seed (each trial's own).
    ``rankings`` maps a label to a ``rank_algorithms`` dict, stored as given.
    ``max_fes`` is the budget as requested, None when each cell ran with
    ``trial_budget``'s default.
    ``versions`` names the software that produced the numbers.
    """
    summary_cells = []
    for (algo, fn, dim), outcomes in cells.items():
        config = asdict(outcomes[0].config)
        del config["seed"]
        summary_cells.append({"algorithm": algo, "function": fn, "dim": dim,
                              "max_fes": trial_budget(max_fes, dim),
                              **aggregate(outcomes), "config": config})
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "success_threshold": success_threshold,
        "max_fes": max_fes,
        "n_trials": n_trials,
        "base_seed": base_seed,
        "versions": software_versions(),
        "cells": summary_cells,
        "rankings": rankings,
    }
