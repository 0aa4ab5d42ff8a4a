"""Parameter-light reference optimizers: BBPSO, BBFWA, and GBDE.

All three, and the multi-scale sampler, run on ``RunScaffold``: a metered
objective, a seeded generator, best-so-far tracking with a bounded error
trace, an optional per-evaluation event callback, and a config that carries
the seed and the success threshold.  Sampling positions are clamped to the
box.
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
    EventLog,
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
    "run_bbpso",
    "run_bbfwa",
    "run_gbde",
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
    """Shared run scaffolding of all four algorithms: budget, best tracking,
    trace, events, stopping and the outcome record.

    ``config`` carries ``seed`` and ``success_threshold``; a run stops once
    its best error reaches the threshold (zero runs the budget out).  Runs
    without a scale or a tunneling width emit NaN for both in their events;
    the multi-scale sampler sets ``gamma`` and ``sigma_s`` on itself.

    ``callback`` is None, a callable that receives every Event in order
    during the step that produced it, or an ``EventLog``, which receives
    each step's events as one ``EventBatch``.
    """

    algorithm = ""
    gamma = math.nan
    sigma_s = math.nan

    def __init__(self, objective: BudgetedObjective, config, callback):
        if config.success_threshold < 0:
            raise ValueError("success_threshold must be nonnegative")
        self.objective = objective
        self.config = config
        self.callback = callback
        self.rng = np.random.default_rng(config.seed)
        spec = objective.spec
        self.lower = spec.lower_bound
        self.upper = spec.upper_bound
        self.best_position: np.ndarray | None = None
        self.best_fitness = math.inf
        self.trace = ErrorTrace(spec.optimum_value)
        self.finished = False

    def _emit(self, first, particle, kind, delta_f, delta_x, probability,
              position, fitness):
        """Hand one step's events to the callback.

        Rows are the evaluations ``first``, ``first + 1``, ...; every argument
        but ``first`` is a column with one entry per row, and ``position`` is
        (rows, dim) or None.  The arrays must not change afterwards.
        """
        batch = EventBatch(np.arange(first, first + len(fitness)), particle, kind,
                           delta_f, delta_x, float(self.gamma), float(self.sigma_s),
                           probability, position, fitness)
        if isinstance(self.callback, EventLog):
            self.callback.add(batch)
        else:
            for event in batch.events():
                self.callback(event)

    def _note_best(self, xs, fs):
        j = int(fs.argmin())
        if fs[j] < self.best_fitness:
            self.best_fitness = float(fs[j])
            self.best_position = np.array(xs[j], dtype=float)

    def _success(self) -> bool:
        if self.best_position is None:
            return False
        err = max(self.best_fitness - self.objective.spec.optimum_value, 0.0)
        return err <= self.config.success_threshold

    def _check_stop(self):
        if self._success() or self.objective.remaining == 0:
            self.finished = True

    def _init_population(self, count, positions=None):
        """Evaluate the initial population, uniform over the box unless
        ``positions`` are given; returns (positions, fitness, full)."""
        if positions is None:
            n = self.objective.spec.dim
            positions = self.rng.uniform(self.lower, self.upper, size=(count, n))
        fitness = np.full(count, math.nan)
        m = min(count, self.objective.remaining)
        if m > 0:
            fs = self.objective.evaluate_many(positions[:m])
            fitness[:m] = fs
            self._note_best(positions[:m], fs)
            self.trace.extend(1, fs)
            if self.callback is not None:
                zeros = np.zeros(m)
                self._emit(1, np.arange(m), np.full(m, INIT), zeros, zeros,
                           np.ones(m), positions[:m].copy(), fs)
        return positions, fitness, m == count

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
            best_position=self.best_position,
            best_fitness=self.best_fitness,
            optimum_value=spec.optimum_value,
            trace=self.trace,
            success_threshold=self.config.success_threshold,
        )


class BbpsoRun(RunScaffold):
    algorithm = "bbpso"

    def __init__(self, objective, config: BbpsoConfig | None = None, *, callback=None):
        super().__init__(objective, config if config is not None else BbpsoConfig(),
                         callback)
        self.positions, fitness, full = self._init_population(self.config.np_)
        self.pbest = self.positions.copy()
        self.pbest_f = fitness.copy()
        if not full:
            self.finished = True
            return
        g = int(np.argmin(self.pbest_f))
        self.gbest = self.pbest[g].copy()
        self.gbest_f = float(self.pbest_f[g])
        self._check_stop()

    def step(self) -> bool:
        if self.finished:
            return False
        m = min(self.config.np_, self.objective.remaining)
        if m == 0:
            self.finished = True
            return False
        first = self.objective.evals_used + 1
        mid = 0.5 * (self.pbest[:m] + self.gbest)
        sd = np.abs(self.pbest[:m] - self.gbest)
        samples = np.clip(self.rng.normal(mid, sd), self.lower, self.upper)
        fs = self.objective.evaluate_many(samples)
        improved = fs < self.pbest_f[:m]
        if self.callback is not None:
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
        self._note_best(samples, fs)
        self.trace.extend(first, fs)
        self._check_stop()
        return not self.finished


class BbfwaRun(RunScaffold):
    algorithm = "bbfwa"

    def __init__(self, objective, config: BbfwaConfig | None = None, *, callback=None):
        super().__init__(objective, config if config is not None else BbfwaConfig(),
                         callback)
        spec = objective.spec
        self.span = spec.span.astype(float)
        if self.config.amp_init is None:
            self.amplitude = self.span.copy()
        else:
            self.amplitude = np.full(spec.dim, float(self.config.amp_init))
        if objective.remaining == 0:
            self.finished = True
            return
        self.center = self.rng.uniform(self.lower, self.upper)
        self.center_f = objective.evaluate(self.center)
        self._note_best(self.center[None, :], np.array([self.center_f]))
        self.trace.extend(1, [self.center_f])
        if self.callback is not None:
            self._emit(1, np.zeros(1, dtype=int), np.full(1, INIT), np.zeros(1),
                       np.zeros(1), np.ones(1), self.center[None, :],
                       np.array([self.center_f]))
        self._check_stop()

    def step(self) -> bool:
        if self.finished:
            return False
        cfg = self.config
        m = min(cfg.np_, self.objective.remaining)
        if m == 0:
            self.finished = True
            return False
        first = self.objective.evals_used + 1
        n = self.objective.spec.dim
        sparks = self.center + self.rng.uniform(-self.amplitude, self.amplitude,
                                                size=(m, n))
        sparks = np.clip(sparks, self.lower, self.upper)
        fs = self.objective.evaluate_many(sparks)
        j = int(np.argmin(fs))
        improved = fs[j] < self.center_f
        if self.callback is not None:
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
        self._note_best(sparks, fs)
        self.trace.extend(first, fs)
        self._check_stop()
        return not self.finished


class GbdeRun(RunScaffold):
    algorithm = "gbde"

    def __init__(self, objective, config: GbdeConfig | None = None, *, callback=None):
        super().__init__(objective, config if config is not None else GbdeConfig(),
                         callback)
        self.positions, self.fitness, full = self._init_population(self.config.np_)
        if not full:
            self.finished = True
            return
        self._check_stop()

    def step(self) -> bool:
        if self.finished:
            return False
        cfg = self.config
        m = min(cfg.np_, self.objective.remaining)
        if m == 0:
            self.finished = True
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
        if self.callback is not None:
            self._emit(first, np.arange(m), np.where(selected, ACCEPT_BETTER, REJECT),
                       fs - self.fitness[:m], _row_norms(trials - self.positions[:m]),
                       selected.astype(float), trials, fs)
        self.positions[:m][selected] = trials[selected]
        self.fitness[:m][selected] = fs[selected]
        self._note_best(trials, fs)
        self.trace.extend(first, fs)
        self._check_stop()
        return not self.finished


def run_bbpso(objective, config=None, *, callback=None):
    """Run bare-bones PSO to completion on a metered objective."""
    return BbpsoRun(objective, config, callback=callback).run()


def run_bbfwa(objective, config=None, *, callback=None):
    """Run bare-bones fireworks to completion on a metered objective."""
    return BbfwaRun(objective, config, callback=callback).run()


def run_gbde(objective, config=None, *, callback=None):
    """Run Gaussian bare-bones DE to completion on a metered objective."""
    return GbdeRun(objective, config, callback=callback).run()
