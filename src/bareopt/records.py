"""Shared run records: trial outcomes, diagnostic events, and the
best-so-far record (``ErrorTrace``: a run's best point, its error and the
batches that lowered the best, from which the error curve is read)."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

EVENT_KINDS = (
    "init",
    "accept-better",
    "accept-tunnel",
    "reject",
    "mean-replace",
    "scale-halve",
)

# the kind column of an EventBatch holds indices into EVENT_KINDS
INIT, ACCEPT_BETTER, ACCEPT_TUNNEL, REJECT, MEAN_REPLACE, SCALE_HALVE = range(6)

# Kinds whose position is (or becomes) an actual particle position.
ACCEPTED_KINDS = (INIT, ACCEPT_BETTER, ACCEPT_TUNNEL, MEAN_REPLACE)


@dataclass(slots=True)
class EventBatch:
    """The events of one run step as columns, one row per event.

    A step is an initial population, a sweep, a mean replacement or a scale
    change.  ``index`` runs over consecutive evaluation indices (a
    ``scale-halve`` row repeats the last one), ``particle`` is -1 on a row
    tied to no single particle, ``kind`` holds indices into ``EVENT_KINDS``,
    and ``gamma`` and ``sigma`` are the step's own, shared by every row.
    ``probability`` is the acceptance chance the decision actually used (1.0
    for unconditional moves, the barrier-crossing probability for tunnel
    decisions, accepted or not).  ``position`` has shape (rows, dim), or is
    None for a batch of rows that carry no position (``scale-halve``).
    """

    index: np.ndarray
    particle: np.ndarray
    kind: np.ndarray
    delta_f: np.ndarray
    delta_x: np.ndarray
    gamma: float
    sigma: float
    probability: np.ndarray
    position: np.ndarray | None
    fitness: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


# one row of an EventBatch, with ``kind`` as its name in EVENT_KINDS
Event = namedtuple("Event", [f.name for f in fields(EventBatch)])


class EventLog:
    """A run's event stream, kept as the batches its steps emitted.

    ``len()`` counts rows and ``column()`` reads one field over the whole
    log.  Pass an EventLog as a run's ``events`` to have the run hand it
    whole batches.
    """

    def __init__(self):
        self.batches: list[EventBatch] = []
        self._rows = 0

    def add(self, batch: EventBatch) -> None:
        self.batches.append(batch)
        self._rows += len(batch)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        # Event rows, built batch by batch; bench/worker.py:check_log is the
        # one reader left
        for b in self.batches:
            positions = repeat(None) if b.position is None else iter(b.position)
            for i, p, k, df, dx, pr, x, f in zip(
                    b.index.tolist(), b.particle.tolist(), b.kind.tolist(),
                    b.delta_f.tolist(), b.delta_x.tolist(),
                    b.probability.tolist(), positions, b.fitness.tolist()):
                yield Event(i, p, EVENT_KINDS[k], df, dx, b.gamma, b.sigma, pr, x, f)

    def column(self, name: str) -> np.ndarray:
        """One per-row column over the whole log (not ``gamma``, ``sigma`` or
        ``position``, which are per batch)."""
        if not self.batches:
            return np.empty(0)
        return np.concatenate([getattr(b, name) for b in self.batches])


@dataclass
class TrialOutcome:
    """Final statistics of one seeded optimizer run.

    ``final_error`` is best fitness minus the known optimum, floored at zero;
    it is NaN for a run without a best point (nothing evaluated, or nothing
    below +inf).  ``error_trace``
    holds (evaluation_index, best_error_so_far) pairs, down-sampled to a
    bounded number of points with the final point always present.
    ``config`` is the run's own config object, shared, not copied.
    """

    algorithm: str
    function: str
    dim: int
    seed: int
    final_error: float
    evals_used: int
    error_trace: list = field(default_factory=list)
    succeeded: bool = False
    best_position: np.ndarray | None = None
    best_fitness: float = math.nan
    config: object = None


class ErrorTrace:
    """A run's best-so-far record: the best point, its fitness and error, and
    the batches that lowered the best, each kept as its first index and the
    running best over it.  The best after evaluation i is the kept value at
    the last kept index at or before i (+inf before any).  Evaluations arrive
    in contiguous batches numbered from 1; the meter reports NaN as +inf.
    """

    def __init__(self, optimum_value: float, cap: int = 2000):
        self.optimum = float(optimum_value)
        self.cap = int(cap)
        self.best_position: np.ndarray | None = None
        self.best_fitness = math.inf
        self._kept: list[tuple[int, np.ndarray]] = []

    @property
    def error(self) -> float:
        """Best fitness minus the optimum, floored at 0; NaN before any best point."""
        if self.best_position is None:
            return math.nan
        return max(self.best_fitness - self.optimum, 0.0)

    def extend(self, first_index: int, xs, fitnesses) -> None:
        """Record the evaluations ``first_index``, ``first_index + 1``, ... of
        the points ``xs``."""
        fs = np.asarray(fitnesses, dtype=float)
        if fs.size == 0:
            return
        j = int(fs.argmin())
        if not fs[j] < self.best_fitness:
            return
        running = np.fmin.accumulate(fs)
        self._kept.append((first_index, np.fmin(running, self.best_fitness, out=running)))
        self.best_fitness = float(fs[j])
        self.best_position = np.array(xs[j], dtype=float)

    def finalize(self, last_index: int) -> list[tuple[int, float]]:
        """The error curve as a fresh list of (evaluation index, error) pairs:
        the best at each multiple of the smallest power-of-two stride that gives
        at most ``cap`` points, then the current error at ``last_index``."""
        # the smallest power of two s with ceil(last_index / s) <= cap
        stride = 1 << (-(-last_index // self.cap) - 1).bit_length()
        marks = np.arange(stride, last_index, stride)
        # evaluation 0 is a kept batch of one +inf, the best before any evaluation
        batches = [(0, np.array([math.inf])), *self._kept]
        firsts = np.array([i for i, _ in batches])
        lens = np.array([len(b) for _, b in batches])
        best = np.concatenate([b for _, b in batches])
        k = np.searchsorted(firsts, marks, "right") - 1
        # each mark's offset into its batch, capped at the batch's last value
        at = np.cumsum(lens)[k] - lens[k] + np.minimum(marks - firsts[k], lens[k] - 1)
        errors = np.maximum(best[at] - self.optimum, 0.0)
        pairs = list(zip(marks.tolist(), errors.tolist()))
        if last_index > 0:
            pairs.append((last_index, self.error))
        return pairs


def build_outcome(run) -> TrialOutcome:
    """The TrialOutcome of a finished run, read off its objective's spec and
    evaluation count, its config, its trace and its success threshold."""
    spec, trace, evals_used = run.objective.spec, run.trace, run.objective.evals_used
    error, position = trace.error, trace.best_position
    return TrialOutcome(
        algorithm=run.algorithm, function=spec.name, dim=spec.dim, seed=run.config.seed,
        final_error=error, evals_used=evals_used, error_trace=trace.finalize(evals_used),
        succeeded=error <= run.success_threshold,  # a NaN error compares False
        best_position=None if position is None else position.copy(),
        best_fitness=trace.best_fitness, config=run.config)
