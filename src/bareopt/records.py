"""Shared run records: trial outcomes, diagnostic events, error traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EVENT_KINDS = (
    "init",
    "accept-better",
    "accept-tunnel",
    "reject",
    "mean-replace",
    "scale-halve",
)

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
        running = np.minimum.accumulate(fs)
        np.minimum(running, self._best, out=running)
        self._best = float(running[-1])
        # the first index of the batch that is a multiple of the stride
        start = -first_index % self.stride
        errors = np.maximum(running[start::self.stride] - self.optimum, 0.0)
        self.pairs.extend(zip(range(first_index + start, first_index + fs.size, self.stride),
                              errors.tolist()))
        while len(self.pairs) > self.cap:
            self.stride *= 2
            self.pairs = [p for p in self.pairs if p[0] % self.stride == 0]

    def finalize(self, last_index: int, final_error: float) -> list[tuple[int, float]]:
        """Ensure the final point is present and return the trace."""
        if self.pairs and self.pairs[-1][0] == last_index:
            self.pairs[-1] = (last_index, float(final_error))
        elif last_index > 0:
            if len(self.pairs) >= self.cap:
                self.stride *= 2
                self.pairs = [p for p in self.pairs if p[0] % self.stride == 0]
            self.pairs.append((last_index, float(final_error)))
        return self.pairs


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
