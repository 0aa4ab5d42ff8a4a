"""Run diagnostics: trajectory logs, position density, transmission traces.

These tools exist to look inside a run: where the particles actually went,
how often worsening moves got through, and what the population was worth at
the end.  They are first-class for the multi-scale sampler; the baselines
emit the same event stream in a reduced vocabulary (init, accept-better,
reject), so the log utilities still apply.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .benchmarks import get_objective
from .harness import build_config, run_single
from .records import (
    ACCEPT_TUNNEL,
    ACCEPTED_KINDS,
    EVENT_KINDS,
    REJECT,
    EventBatch,
    EventLog,
    TrialOutcome,
)

__all__ = [
    "TrajectoryLog",
    "WaveHistogram",
    "record_run",
    "wave_modulus",
    "transmission_trace",
    "expected_solution_value",
    "export_events_csv",
    "export_histogram_json",
    "export_trace_json",
    "diagnostics_basename",
]


@dataclass
class TrajectoryLog:
    """Complete event stream of one run plus enough metadata to interpret it.

    ``amplitude`` is the worsening-move amplitude the run used (0 for
    algorithms without tunneling), needed to tell a tunneling-disabled run
    apart from one whose probabilities merely underflowed.  ``events`` keeps
    the stream as the run's column batches, which the summaries and exports
    here read.
    """

    algorithm: str
    function: str
    dim: int
    seed: int
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    optimum_value: float
    amplitude: float
    events: EventLog = field(default_factory=EventLog)

    def positions(self) -> np.ndarray:
        """Stacked positions the particles held (the ``ACCEPTED_KINDS`` rows),
        shape (m, dim)."""
        held = [b for b in self.events.batches if b.position is not None]
        if not held:
            return np.empty((0, self.dim))
        kind = np.concatenate([b.kind for b in held])
        return np.concatenate([b.position for b in held])[np.isin(kind, ACCEPTED_KINDS)]

    def final_population(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The particle indices in order of first appearance, each one's last
        held position, shape (m, dim), and that position's fitness."""
        accepted = np.isin(self.events.column("kind"), ACCEPTED_KINDS)
        # row r here is row r of positions(), which stacks the same rows; a
        # later row of a particle overwrites its entry but keeps its place
        latest = {p: r for r, p in enumerate(self.events.column("particle")[accepted].tolist())}
        last = list(latest.values())
        return (np.array(list(latest), dtype=int), self.positions()[last],
                self.events.column("fitness")[accepted][last])


def record_run(
    algorithm: str,
    function: str,
    dim: int,
    *,
    max_fes: int,
    seed: int,
    success_threshold: float = 0.0,
    overrides: dict | None = None,
    init_position=None,
) -> tuple[TrialOutcome, TrajectoryLog]:
    """Run one trial with an event collector attached.

    Defaults to success_threshold 0 so the full budget is observed, which is
    usually what a diagnostic run wants.
    """
    spec = get_objective(function, dim)
    config = build_config(algorithm, seed, success_threshold, overrides)
    log = TrajectoryLog(
        algorithm=algorithm,
        function=function,
        dim=dim,
        seed=seed,
        lower_bound=spec.lower_bound,
        upper_bound=spec.upper_bound,
        optimum_value=spec.optimum_value,
        amplitude=float(getattr(config, "amplitude_a", 0.0)),
    )
    outcome = run_single(
        algorithm, function, dim,
        max_fes=max_fes, seed=seed, success_threshold=success_threshold,
        overrides=overrides, init_position=init_position,
        events=log.events,
    )
    return outcome, log


@dataclass
class WaveHistogram:
    """Position density over the box.

    For dim <= 2 the counts form a joint grid; above that each row of
    ``counts`` is an independent per-dimension marginal.  ``normalized``
    scales counts so each (joint or marginal) density integrates to 1.
    """

    edges: list[np.ndarray]
    counts: np.ndarray
    normalized: np.ndarray
    marginal: bool

    def mode_cell(self) -> tuple[int, ...]:
        """Grid index of the densest cell (joint histograms only)."""
        if self.marginal:
            raise ValueError("mode_cell is defined for joint histograms only")
        return tuple(int(i) for i in
                     np.unravel_index(int(np.argmax(self.counts)), self.counts.shape))

    def cell_bounds(self, cell) -> list[tuple[float, float]]:
        if self.marginal:
            raise ValueError("cell_bounds is defined for joint histograms only")
        return [(float(self.edges[d][i]), float(self.edges[d][i + 1]))
                for d, i in enumerate(cell)]

    def cell_contains(self, cell, point) -> bool:
        """True when the point lies inside the cell (edges inclusive)."""
        point = np.asarray(point, dtype=float)
        return all(lo <= point[d] <= hi
                   for d, (lo, hi) in enumerate(self.cell_bounds(cell)))


def wave_modulus(log: TrajectoryLog, bins_per_dim: int = 50) -> WaveHistogram:
    """Histogram of accepted particle positions over the box.

    Counts every position a particle actually held (initialization,
    accepted moves, mean replacements); rejected candidates are excluded.
    """
    if bins_per_dim < 1:
        raise ValueError("bins_per_dim must be at least 1")
    points = log.positions()
    if points.shape[0] == 0:
        raise ValueError("log holds no accepted positions")
    box = list(zip(log.lower_bound, log.upper_bound))
    if log.dim <= 2:
        counts, edges = np.histogramdd(points, bins=bins_per_dim, range=box)
        widths = [e[1] - e[0] for e in edges]
        volume = float(np.prod(widths))
        normalized = counts / (counts.sum() * volume)
        return WaveHistogram(edges=list(edges), counts=counts,
                             normalized=normalized, marginal=False)
    counts = np.empty((log.dim, bins_per_dim))
    normalized = np.empty((log.dim, bins_per_dim))
    edges = []
    for d in range(log.dim):
        c, e = np.histogram(points[:, d], bins=bins_per_dim, range=box[d])
        counts[d] = c
        normalized[d] = c / (c.sum() * (e[1] - e[0]))
        edges.append(e)
    return WaveHistogram(edges=edges, counts=counts,
                         normalized=normalized, marginal=True)


def transmission_trace(log: TrajectoryLog) -> list[tuple[int, float]]:
    """Probabilities of all tunneling decisions in evaluation order.

    Includes both accepted and rejected decisions.  A run with tunneling
    disabled (amplitude 0) never makes such a decision, so its trace is
    empty even though its rejections are logged.
    """
    if log.amplitude == 0:
        return []
    kind = log.events.column("kind")
    decided = (kind == ACCEPT_TUNNEL) | (kind == REJECT)
    return list(zip(log.events.column("index")[decided].tolist(),
                    log.events.column("probability")[decided].tolist()))


def expected_solution_value(log: TrajectoryLog) -> float:
    """Mean logged fitness of the final population snapshot."""
    _, _, fitness = log.final_population()
    if not fitness.size:
        raise ValueError("log holds no population")
    return float(np.mean(fitness))


# --- exports ------------------------------------------------------------------


def diagnostics_basename(algorithm: str, function: str, dim: int, seed: int) -> str:
    return f"{algorithm}_{function}_{dim}d_seed{seed}"


def export_events_csv(log: TrajectoryLog, path) -> None:
    """Write the event stream as CSV, one row per event, one batch at a time."""
    path = Path(path)
    pos_cols = [f"pos_{d}" for d in range(log.dim)]
    no_position = "," * (log.dim - 1)  # dim empty fields
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow([
            "evaluation_index", "particle_index", "event", "delta_f", "delta_x",
            "gamma", "sigma", "probability_used", "fitness", *pos_cols,
        ])
        for batch in log.events.batches:
            fh.write(_csv_rows(batch, no_position))


def _csv_rows(b: EventBatch, no_position: str) -> str:
    """The rows ``csv.writer`` writes for a batch: no field ever needs quoting,
    and the str of a float (numpy's included) is its repr."""
    m = len(b)
    cols = [map(str, b.index.tolist()), map(str, b.particle.tolist()),
            map(EVENT_KINDS.__getitem__, b.kind.tolist()),
            map(repr, b.delta_f.tolist()), map(repr, b.delta_x.tolist()),
            repeat(repr(b.gamma), m), repeat(repr(b.sigma), m),
            map(repr, b.probability.tolist()), map(repr, b.fitness.tolist())]
    if b.position is None:
        cols.append(repeat(no_position, m))
    else:
        cols.extend(map(repr, c) for c in b.position.T.tolist())
    rows = "\r\n".join(map(",".join, zip(*cols)))
    return rows + "\r\n" if rows else ""


def export_histogram_json(hist: WaveHistogram, path, meta: dict | None = None) -> None:
    payload = {
        "marginal": hist.marginal,
        "edges": [e.tolist() for e in hist.edges],
        "counts": hist.counts.tolist(),
        "normalized": hist.normalized.tolist(),
    }
    if meta:
        payload.update(meta)
    Path(path).write_text(json.dumps(payload))


def export_trace_json(trace: list[tuple[int, float]], path,
                      meta: dict | None = None) -> None:
    payload = {"trace": [[int(i), float(p)] for i, p in trace]}
    if meta:
        payload.update(meta)
    Path(path).write_text(json.dumps(payload))
