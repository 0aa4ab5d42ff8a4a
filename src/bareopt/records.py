"""Shared run records: trial outcomes, diagnostic events, error traces."""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
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
ACCEPTED_KINDS = ("init", "accept-better", "accept-tunnel", "mean-replace")


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

    def events(self) -> list[Event]:
        """The rows as Event records; each position is a view of its row."""
        positions = repeat(None) if self.position is None else iter(self.position)
        return [
            Event(i, p, EVENT_KINDS[k], df, dx, self.gamma, self.sigma, pr, x, f)
            for i, p, k, df, dx, pr, x, f in zip(
                self.index.tolist(), self.particle.tolist(), self.kind.tolist(),
                self.delta_f.tolist(), self.delta_x.tolist(),
                self.probability.tolist(), positions, self.fitness.tolist())
        ]


class EventLog(Sequence):
    """A run's event stream, kept as the batches its steps emitted.

    ``len()`` counts rows without building anything.  Indexing and iteration
    build Event records from the batches as they go, so counting through a
    long log never holds all of its Events at once.  Pass an EventLog as a
    run's ``events`` to have the run hand it whole batches.
    """

    def __init__(self):
        self.batches: list[EventBatch] = []
        self._starts: list[int] = []  # the row of each batch's first event
        self._rows = 0

    def add(self, batch: EventBatch) -> None:
        self.batches.append(batch)
        self._starts.append(self._rows)
        self._rows += len(batch)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        for batch in self.batches:
            yield from batch.events()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._rows))]
        i = range(self._rows)[i]  # negative indices, and IndexError past the end
        b = bisect.bisect_right(self._starts, i) - 1
        return self.batches[b].events()[i - self._starts[b]]

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
    it is NaN for a run that never got to evaluate anything.  ``error_trace``
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
    """Best-so-far error curve kept to at most ``cap`` points.

    Every evaluation is observed; once the stored curve would exceed the cap
    the sampling stride doubles and already-stored points are thinned to the
    new stride, so the retained indices stay mutually consistent.
    """

    def __init__(self, optimum_value: float, cap: int = 2000):
        self.optimum = float(optimum_value)
        self.cap = int(cap)
        self.stride = 1
        self.pairs: list[tuple[int, float]] = []
        self._best = math.inf

    @property
    def best_fitness(self) -> float:
        return self._best

    def extend(self, first_index: int, fitnesses) -> None:
        """Record a contiguous batch of evaluations starting at ``first_index`` (1-based)."""
        fs = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        if fs.size == 0:
            return
        # fmin skips NaN, as replay_best does, so a NaN never enters the curve
        running = np.fmin.accumulate(fs)
        np.fmin(running, self._best, out=running)
        self._best = float(running[-1])
        # the first index of the batch that is a multiple of the stride
        start = -first_index % self.stride
        errors = np.maximum(running[start::self.stride] - self.optimum, 0.0)
        self.pairs.extend(zip(range(first_index + start, first_index + fs.size, self.stride),
                              errors.tolist()))
        while len(self.pairs) > self.cap:
            self._double_stride()

    def finalize(self, last_index: int, final_error: float) -> list[tuple[int, float]]:
        """Ensure the final point is present and return the trace."""
        if self.pairs and self.pairs[-1][0] == last_index:
            self.pairs[-1] = (last_index, float(final_error))
        elif last_index > 0:
            if len(self.pairs) >= self.cap:
                self._double_stride()
            self.pairs.append((last_index, float(final_error)))
        return self.pairs

    def _double_stride(self) -> None:
        """Double the sampling stride and thin the stored points to it."""
        self.stride *= 2
        self.pairs = [p for p in self.pairs if p[0] % self.stride == 0]


def build_outcome(
    algorithm: str,
    function: str,
    dim: int,
    seed: int,
    *,
    evals_used: int,
    best_position: np.ndarray | None,
    best_fitness: float,
    optimum_value: float,
    trace: ErrorTrace,
    success_threshold: float,
) -> TrialOutcome:
    """Assemble a TrialOutcome from raw run state."""
    if evals_used == 0 or best_position is None:
        final_error = math.nan
    else:
        final_error = max(float(best_fitness) - float(optimum_value), 0.0)
    succeeded = (not math.isnan(final_error)) and final_error <= success_threshold
    return TrialOutcome(
        algorithm=algorithm,
        function=function,
        dim=dim,
        seed=seed,
        final_error=final_error,
        evals_used=evals_used,
        error_trace=trace.finalize(evals_used, final_error),
        succeeded=succeeded,
        best_position=None if best_position is None else np.array(best_position, dtype=float),
        best_fitness=float(best_fitness),
    )
