"""Parameter-light reference optimizers: BBPSO, BBFWA, and GBDE.

All three, and the multi-scale sampler, run on ``RunScaffold``: a metered
objective, a seeded generator, one best-so-far record (an ``ErrorTrace``:
the best point, its error and a bounded error curve), an optional
``EventLog`` for its events, and a config that carries the seed and the
success threshold.  Sampling positions are clamped to the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import BudgetedObjective
from .records import (
    ACCEPT_BETTER,
    INIT,
    REJECT,
    ErrorTrace,
    EventBatch,
    TrialOutcome,
    build_outcome,
)

__all__ = [
    "BbpsoConfig",
    "BbfwaConfig",
    "GbdeConfig",
    "BbpsoRun",
    "BbfwaRun",
    "GbdeRun",
]


@dataclass
class BbpsoConfig:
    """Bare-bones particle swarm: each particle resamples from a Gaussian
    spanned by its personal best and the global best."""

    np_: int = 20
    seed: int = 0
    success_threshold: float = 1e-8

    def __post_init__(self):
        if self.np_ < 2:
            raise ValueError("np_ must be at least 2")


@dataclass
class BbfwaConfig:
    """Bare-bones fireworks: uniform sparks in a shrinking/growing box around
    the single best position.  ``amp_init`` of None means the full box span."""

    np_: int = 300
    amp_init: float | None = None
    amp_grow: float = 1.2
    amp_shrink: float = 0.9
    amp_floor: float = float(np.finfo(float).eps)
    seed: int = 0
    success_threshold: float = 1e-8

    def __post_init__(self):
        if self.np_ < 1:
            raise ValueError("np_ must be at least 1")
        if not (0 < self.amp_shrink < 1 < self.amp_grow):
            raise ValueError("need 0 < amp_shrink < 1 < amp_grow")
        if self.amp_floor <= 0:
            raise ValueError("amp_floor must be positive")
        if self.amp_init is not None and self.amp_init <= 0:
            raise ValueError("amp_init must be positive")


@dataclass
class GbdeConfig:
    """Gaussian bare-bones differential evolution: mutation samples between
    the best and the parent, with binomial crossover at a per-individual
    crossover rate drawn from N(cr_mean, cr_std) clipped to [0, 1]."""

    np_: int = 100
    cr_mean: float = 0.5
    cr_std: float = 0.1
    seed: int = 0
    success_threshold: float = 1e-8

    def __post_init__(self):
        if self.np_ < 4:
            raise ValueError("np_ must be at least 4")
        if self.cr_std < 0:
            raise ValueError("cr_std must be nonnegative")


def _row_norms(d):
    """Euclidean norm of each row, bit for bit what ``np.linalg.norm`` gives
    for that row alone: both take the BLAS dot product of the row with itself."""
    return np.sqrt(np.vecdot(d, d))


def _clamped_cr(rng, m, mean, std):
    """Per-individual crossover rates, clipped into [0, 1]."""
    return np.clip(rng.normal(mean, std, size=m), 0.0, 1.0)


class RunScaffold:
    """Shared run scaffolding of all four algorithms: budget, best-so-far
    record, events, stopping and the outcome record.

    ``trace`` (an ``ErrorTrace``) holds the run's best point, its error and
    the best-so-far curve.  ``config`` carries ``seed`` and
    ``success_threshold``; a run stops once the trace's error reaches the
    threshold (zero runs the budget out).  Runs without a scale or a
    tunneling width emit NaN for both in their events; the multi-scale
    sampler sets ``gamma`` and ``sigma_s`` on itself.

    ``events`` is None or an ``EventLog``, which receives each step's
    events as one ``EventBatch``.

    Each subclass names its algorithm and its config class; a run built
    without a config uses that class's defaults.
    """

    algorithm = ""
    config_class: type
    gamma = math.nan
    sigma_s = math.nan

    def __init__(self, objective: BudgetedObjective, config=None, *, events=None):
        if config is None:
            config = self.config_class()
        if config.success_threshold < 0:
            raise ValueError("success_threshold must be nonnegative")
        self.objective = objective
        self.config = config
        self.events = events
        self.rng = np.random.default_rng(config.seed)
        spec = objective.spec
        self.lower = spec.lower_bound
        self.upper = spec.upper_bound
        self.trace = ErrorTrace(spec.optimum_value)
        self.finished = False

    def _emit(self, first, particle, kind, delta_f, delta_x, probability,
              position, fitness):
        """Hand one step's events to the event log.

        Rows are the evaluations ``first``, ``first + 1``, ...; every argument
        but ``first`` is a column with one entry per row, and ``position`` is
        (rows, dim) or None.  The arrays must not change afterwards.
        """
        self.events.add(EventBatch(np.arange(first, first + len(fitness)), particle,
                                   kind, delta_f, delta_x, float(self.gamma),
                                   float(self.sigma_s), probability, position, fitness))

    def _sweep_size(self, pop) -> int:
        """How many of ``pop`` proposals the next step may evaluate; 0 once
        the run is over (a spent budget ends it here)."""
        if self.finished:
            return 0
        m = min(pop, self.objective.remaining)
        if m == 0:
            self.finished = True
        return m

    def _record(self, first, xs, fs) -> bool:
        """Book a step's evaluations ``first``, ``first + 1``, ... at ``xs`` in
        the trace, and check for a stop.  Returns whether the run goes on."""
        self.trace.extend(first, xs, fs)
        # a NaN error (no best point yet) compares False
        if self.trace.error <= self.config.success_threshold or self.objective.remaining == 0:
            self.finished = True
        return not self.finished

    def _init_population(self, count, positions=None):
        """Evaluate the initial population, uniform over the box unless
        ``positions`` are given; returns (positions, fitness).

        It is booked like any step.  A budget too small for the whole
        population evaluates what it can, leaves NaN fitness for the rest
        and ends the run.
        """
        if positions is None:
            n = self.objective.spec.dim
            positions = self.rng.uniform(self.lower, self.upper, size=(count, n))
        fitness = np.full(count, math.nan)
        m = self._sweep_size(count)
        if m > 0:
            fs = self.objective.evaluate_many(positions[:m])
            fitness[:m] = fs
            if self.events is not None:
                zeros = np.zeros(m)
                self._emit(1, np.arange(m), np.full(m, INIT), zeros, zeros,
                           np.ones(m), positions[:m].copy(), fs)
            self._record(1, positions[:m], fs)
        return positions, fitness

    def step(self) -> bool:
        raise NotImplementedError

    def run(self) -> TrialOutcome:
        while self.step():
            pass
        return self.outcome()

    def outcome(self) -> TrialOutcome:
        spec = self.objective.spec
        return build_outcome(
            self.algorithm,
            spec.name,
            spec.dim,
            self.config.seed,
            evals_used=self.objective.evals_used,
            trace=self.trace,
            success_threshold=self.config.success_threshold,
        )


class BbpsoRun(RunScaffold):
    algorithm = "bbpso"
    config_class = BbpsoConfig

    def __init__(self, objective, config=None, *, events=None):
        super().__init__(objective, config, events=events)
        self.positions, fitness = self._init_population(self.config.np_)
        self.pbest = self.positions.copy()
        self.pbest_f = fitness.copy()
        g = int(np.argmin(self.pbest_f))
        self.gbest = self.pbest[g].copy()
        self.gbest_f = float(self.pbest_f[g])

    def step(self) -> bool:
        m = self._sweep_size(self.config.np_)
        if m == 0:
            return False
        first = self.objective.evals_used + 1
        mid = 0.5 * (self.pbest[:m] + self.gbest)
        sd = np.abs(self.pbest[:m] - self.gbest)
        samples = np.clip(self.rng.normal(mid, sd), self.lower, self.upper)
        fs = self.objective.evaluate_many(samples)
        improved = fs < self.pbest_f[:m]
        if self.events is not None:
            self._emit(first, np.arange(m), np.where(improved, ACCEPT_BETTER, REJECT),
                       fs - self.pbest_f[:m], _row_norms(samples - self.pbest[:m]),
                       improved.astype(float), samples, fs)
        self.positions[:m] = samples
        self.pbest[:m][improved] = samples[improved]
        self.pbest_f[:m][improved] = fs[improved]
        g = int(np.argmin(self.pbest_f))
        if self.pbest_f[g] < self.gbest_f:
            self.gbest = self.pbest[g].copy()
            self.gbest_f = float(self.pbest_f[g])
        return self._record(first, samples, fs)


class BbfwaRun(RunScaffold):
    algorithm = "bbfwa"
    config_class = BbfwaConfig

    def __init__(self, objective, config=None, *, events=None):
        super().__init__(objective, config, events=events)
        spec = objective.spec
        self.span = spec.span.astype(float)
        if self.config.amp_init is None:
            self.amplitude = self.span.copy()
        else:
            self.amplitude = np.full(spec.dim, float(self.config.amp_init))
        positions, fitness = self._init_population(1)
        self.center = positions[0]
        self.center_f = float(fitness[0])

    def step(self) -> bool:
        cfg = self.config
        m = self._sweep_size(cfg.np_)
        if m == 0:
            return False
        first = self.objective.evals_used + 1
        n = self.objective.spec.dim
        sparks = self.center + self.rng.uniform(-self.amplitude, self.amplitude,
                                                size=(m, n))
        sparks = np.clip(sparks, self.lower, self.upper)
        fs = self.objective.evaluate_many(sparks)
        j = int(np.argmin(fs))
        improved = fs[j] < self.center_f
        if self.events is not None:
            taken = np.zeros(m, dtype=bool)
            taken[j] = improved
            self._emit(first, np.zeros(m, dtype=int),
                       np.where(taken, ACCEPT_BETTER, REJECT), fs - self.center_f,
                       _row_norms(sparks - self.center), taken.astype(float), sparks, fs)
        if improved:
            self.center = sparks[j].copy()
            self.center_f = float(fs[j])
            self.amplitude = self.amplitude * cfg.amp_grow
        else:
            # a tie counts as no improvement
            self.amplitude = self.amplitude * cfg.amp_shrink
        self.amplitude = np.clip(self.amplitude, cfg.amp_floor, self.span)
        return self._record(first, sparks, fs)


class GbdeRun(RunScaffold):
    algorithm = "gbde"
    config_class = GbdeConfig

    def __init__(self, objective, config=None, *, events=None):
        super().__init__(objective, config, events=events)
        self.positions, self.fitness = self._init_population(self.config.np_)

    def step(self) -> bool:
        cfg = self.config
        m = self._sweep_size(cfg.np_)
        if m == 0:
            return False
        first = self.objective.evals_used + 1
        n = self.objective.spec.dim
        b = int(np.argmin(self.fitness))
        best = self.positions[b]

        mid = 0.5 * (best + self.positions[:m])
        sd = np.abs(best - self.positions[:m])
        mutants = np.clip(self.rng.normal(mid, sd), self.lower, self.upper)
        cr = _clamped_cr(self.rng, m, cfg.cr_mean, cfg.cr_std)
        jrand = self.rng.integers(0, n, size=m)
        cross = self.rng.random((m, n)) < cr[:, None]
        cross[np.arange(m), jrand] = True
        trials = np.where(cross, mutants, self.positions[:m])
        fs = self.objective.evaluate_many(trials)
        selected = fs <= self.fitness[:m]
        if self.events is not None:
            self._emit(first, np.arange(m), np.where(selected, ACCEPT_BETTER, REJECT),
                       fs - self.fitness[:m], _row_norms(trials - self.positions[:m]),
                       selected.astype(float), trials, fs)
        self.positions[:m][selected] = trials[selected]
        self.fitness[:m][selected] = fs[selected]
        return self._record(first, trials, fs)

