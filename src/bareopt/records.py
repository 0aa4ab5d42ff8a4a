"""Shared run records: trial outcomes, diagnostic events, and the
best-so-far record (``ErrorTrace``: a run's best point, its error and its
thinned error curve)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class Event:
    """One diagnostics record emitted during a run.

    ``eval_index`` is the 1-based index of the evaluation that produced the
    record; a ``scale-halve`` marker carries no evaluation of its own and
    repeats the index of the last one.  ``particle`` is -1 for records not
    tied to a single particle.  ``probability`` is the acceptance chance
    actually used for the decision (1.0 for unconditional moves, the
    barrier-crossing probability for tunnel decisions, whether they were
    accepted or not).
    """

    eval_index: int
    particle: int
    kind: str
    delta_f: float
    delta_x: float
    gamma: float
    sigma: float
    probability: float
    position: np.ndarray | None
    fitness: float


@dataclass(slots=True)
class EventBatch:
    """The events of one run step as columns, one row per event.

    A step is an initial population, a sweep, a mean replacement or a scale
    change.  ``index`` runs over consecutive evaluation indices (a
    ``scale-halve`` row repeats the last one), ``kind`` holds indices into
    ``EVENT_KINDS``, and ``gamma`` and ``sigma`` are the step's own, shared
    by every row.  ``position`` has shape (rows, dim), or is None for a batch
    of rows that carry no position (``scale-halve``).
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


class ErrorTrace:
    """A run's best-so-far record: the best point, its fitness and error, and
    the error curve kept to at most ``cap`` points.

    Evaluations arrive in contiguous batches numbered from 1.  The curve holds
    the best fitness at every multiple of ``stride`` up to the last one; the
    stride is the smallest power of two that keeps those multiples within the
    cap, so the kept indices depend on the evaluation count alone.  A NaN
    fitness ranks as worst: it never becomes the best or enters the curve.
    """

    def __init__(self, optimum_value: float, cap: int = 2000):
        self.optimum = float(optimum_value)
        self.cap = int(cap)
        self.stride = 1
        self.best_position: np.ndarray | None = None
        self.best_fitness = math.inf
        self._curve = np.empty(self.cap)
        self._size = 0

    @property
    def error(self) -> float:
        """Best fitness minus the optimum, floored at 0; NaN before any best point."""
        if self.best_position is None:
            return math.nan
        return max(self.best_fitness - self.optimum, 0.0)

    def extend(self, first_index: int, xs, fitnesses) -> None:
        """Record the evaluations ``first_index``, ``first_index + 1``, ... of
        the points ``xs``."""
        fs = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        if fs.size == 0:
            return
        last = first_index + fs.size - 1
        while last // self.stride > self.cap:
            self.stride *= 2
            self._size //= 2
            self._curve[:self._size] = self._curve[1:2 * self._size:2]
        # fmin skips NaN, so a NaN never enters the curve
        running = np.fmin.accumulate(fs)[-first_index % self.stride::self.stride]
        end = self._size + len(running)
        np.fmin(running, self.best_fitness, out=self._curve[self._size:end])
        self._size = end
        # argmin stops at the first NaN: rank NaN as worst, and an all-NaN
        # batch leaves the best as it was
        j = int(fs.argmin())
        if math.isnan(fs[j]) and not np.isnan(fs).all():
            j = int(np.nanargmin(fs))
        if fs[j] < self.best_fitness:
            self.best_fitness = float(fs[j])
            self.best_position = np.array(xs[j], dtype=float)

    def finalize(self, last_index: int) -> list[tuple[int, float]]:
        """The curve as a fresh list of (evaluation index, error) pairs, with
        the current error at ``last_index``; the trace itself is unchanged."""
        stride, curve = self.stride, self._curve[:self._size]
        if last_index % stride and self._size == self.cap:
            # no room for the final point: thin as one more doubling would
            stride, curve = 2 * stride, curve[1::2]
        errors = np.maximum(curve - self.optimum, 0.0).tolist()
        pairs = list(zip(range(stride, last_index + 1, stride), errors))
        if pairs and pairs[-1][0] == last_index:
            pairs.pop()
        if last_index > 0:
            pairs.append((last_index, self.error))
        return pairs


def build_outcome(
    algorithm: str,
    function: str,
    dim: int,
    seed: int,
    *,
    evals_used: int,
    trace: ErrorTrace,
    success_threshold: float,
) -> TrialOutcome:
    """Assemble a TrialOutcome from a run's evaluation count and its trace."""
    error, position = trace.error, trace.best_position
    return TrialOutcome(
        algorithm=algorithm,
        function=function,
        dim=dim,
        seed=seed,
        final_error=error,
        evals_used=evals_used,
        error_trace=trace.finalize(evals_used),
        succeeded=error <= success_threshold,  # a NaN error compares False
        best_position=None if position is None else position.copy(),
        best_fitness=trace.best_fitness,
    )
