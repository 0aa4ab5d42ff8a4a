"""Parameter-light reference optimizers: BBPSO, BBFWA, and GBDE.

All three, and the multi-scale sampler, run on ``RunScaffold``: a metered
objective, a seeded generator, one best-so-far record (an ``ErrorTrace``:
the best point, its error and the batches that lowered it), an optional
``EventLog`` for its events, a config that carries the seed, and the run's
success threshold.  Every evaluated step is booked through ``_book``, which
logs each algorithm's moves with one Δf, kind and probability rule.
Proposals are drawn in one array and clamped to the box in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import BudgetedObjective
from .records import (
    ACCEPT_BETTER,
    ACCEPT_TUNNEL,
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

# bbfwa's amplitude factor after an improving step and after any other, and its
# least value, so repeated failures cannot shrink it to 0
AMP_GROW = 1.2
AMP_SHRINK = 0.9
AMP_FLOOR = float(np.finfo(float).eps)
# the mean and spread of gbde's per-individual crossover rate
CR_MEAN = 0.5
CR_STD = 0.1


@dataclass
class BbpsoConfig:
    """Bare-bones particle swarm: each particle resamples from a Gaussian
    spanned by its personal best and the global best."""

    np_: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.np_ < 2:
            raise ValueError("np_ must be at least 2")


@dataclass
class BbfwaConfig:
    """Bare-bones fireworks: uniform sparks in a shrinking/growing box around
    the single best position, starting at the full box span (``AMP_GROW``,
    ``AMP_SHRINK``, ``AMP_FLOOR``)."""

    np_: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.np_ < 1:
            raise ValueError("np_ must be at least 1")


@dataclass
class GbdeConfig:
    """Gaussian bare-bones differential evolution: mutation samples between
    the best and the parent, with binomial crossover at a per-individual
    crossover rate drawn from N(CR_MEAN, CR_STD) clipped to [0, 1]."""

    np_: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.np_ < 4:
            raise ValueError("np_ must be at least 4")


def _jumps(xs, old_x):
    """Δx of each move, the length of ``xs - old_x`` per row summed by numpy (a BLAS
    dot's bits vary with the CPU); a row gives the same bits alone as in a batch."""
    d = xs - old_x
    d *= d
    return np.sqrt(np.add.reduce(d, axis=1))


def _fitness_gap(new_f, old_f):
    """Delta f of each move, ``new_f - old_f``, with equal values giving +0.0.

    Two equal infinities are an equal move, not inf - inf = NaN (which would
    also warn).  Any other pair keeps the bits of the plain difference.
    """
    return np.subtract(new_f, old_f, out=np.zeros(len(new_f)), where=new_f != old_f)


def _clamp(xs, lower, upper):
    """``np.clip(xs, lower, upper)`` in place, NaN included.  Where a zero meets a bound
    of the other sign, np.clip picks by argument shape, this by np.maximum's rule."""
    return np.minimum(np.maximum(xs, lower, out=xs), upper, out=xs)


def _normal(rng, loc, scale, shape):
    """``rng.normal(loc, scale, shape)`` for a finite ``scale >= 0``, from the same
    draws: ``loc + scale·N(0,1)`` per element in C order, in one array."""
    z = rng.standard_normal(shape)
    z *= scale
    z += loc
    return z


def _between(rng, a, b, lower, upper):
    """The bare-bones proposal N((a + b)/2, |a - b|) per coordinate, clamped."""
    mid = 0.5 * (a + b)
    return _clamp(_normal(rng, mid, np.abs(a - b), mid.shape), lower, upper)


def _sparks(rng, center, amplitude, m):
    """``center + rng.uniform(-amplitude, amplitude, (m, n))``, in one array."""
    u = rng.random((m, len(center)))
    u *= 2.0 * amplitude  # high - low: amplitude - (-amplitude), exactly
    u -= amplitude  # + low
    u += center
    return u


def _clamped_cr(rng, m, mean, std):
    """Per-individual crossover rates, clipped into [0, 1]."""
    return _clamp(_normal(rng, mean, std, m), 0.0, 1.0)


# a trial's success threshold unless its caller names one
DEFAULT_SUCCESS_THRESHOLD = 1e-8


class RunScaffold:
    """Shared run scaffolding of all four algorithms: budget, best-so-far
    record, events, stopping and the outcome record.

    ``trace`` (an ``ErrorTrace``) holds the run's best point, its error and
    the batches that lowered it, off which ``outcome`` reads the error
    curve.  ``config`` carries ``seed``; the run stops once the trace's
    error reaches ``success_threshold``, a keyword of the run that it
    refuses when negative or NaN (zero runs the budget out).  Runs
    without a scale or a tunneling width emit NaN for both in their events;
    the multi-scale sampler sets ``gamma`` and ``sigma_s`` on itself.

    Every evaluated step, the initial population included, is booked by one
    ``_book`` call, which also hands ``events`` (None or an ``EventLog``)
    the step's events as one ``EventBatch``.

    Each subclass names its algorithm and its config class; a run built
    without a config uses that class's defaults.
    """

    algorithm = ""
    config_class: type
    gamma = math.nan
    sigma_s = math.nan

    def __init__(self, objective: BudgetedObjective, config=None, *,
                 success_threshold: float = DEFAULT_SUCCESS_THRESHOLD, events=None):
        if config is None:
            config = self.config_class()
        if not success_threshold >= 0:  # NaN included
            raise ValueError("success_threshold must be nonnegative")
        self.objective = objective
        self.config = config
        self.success_threshold = success_threshold
        self.events = events
        self.rng = np.random.default_rng(config.seed)
        spec = objective.spec
        self.lower = spec.lower_bound
        self.upper = spec.upper_bound
        self.trace = ErrorTrace(spec.optimum_value)
        self.finished = False

    def _sweep_size(self, pop) -> int:
        """How many of ``pop`` proposals the next step may evaluate; 0 once
        the run is over (a spent budget ends it here)."""
        if self.finished:
            return 0
        m = min(pop, self.objective.remaining)
        if m == 0:
            self.finished = True
        return m

    def _book(self, xs, fs, taken, old_x, old_f, *, kind=None, particle=None,
              delta_f=None, delta_x=None, probs=None) -> bool:
        """Book the run's last ``len(fs)`` evaluations, at ``xs``, in the trace
        and the event log, and check for a stop; returns whether the run goes on.

        ``taken`` marks the moves made from ``old_x`` at ``old_f``, both read
        before the step changes them.  Δf is ``_fitness_gap(fs, old_f)`` and
        Δx ``_jumps(xs, old_x)`` unless given.  A taken move that does not
        worsen the fitness is accept-better, a taken worsening one
        accept-tunnel, any other a reject, unless the step names its ``kind``.
        The probability is ``taken``, with the worsening rows set to ``probs``
        where given.  The arrays must not change afterwards.
        """
        first = self.objective.evals_used - len(fs) + 1
        if self.events is not None:
            if delta_f is None:
                delta_f = _fitness_gap(fs, old_f)
            if delta_x is None:
                delta_x = _jumps(xs, old_x)
            worse = delta_f > 0
            probability = taken.astype(float)
            if probs is not None:
                probability[worse] = probs
            kinds = (np.where(taken, np.where(worse, ACCEPT_TUNNEL, ACCEPT_BETTER), REJECT)
                     if kind is None else np.full(len(fs), kind))
            self.events.add(EventBatch(
                np.arange(first, first + len(fs)),
                np.arange(len(fs)) if particle is None else particle, kinds, delta_f,
                delta_x, float(self.gamma), float(self.sigma_s), probability, xs, fs))
        self.trace.extend(first, xs, fs)
        # a NaN error (no best point yet) compares False
        if self.trace.error <= self.success_threshold or self.objective.remaining == 0:
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
            xs = positions[:m].copy()  # the population moves on; its log rows stay
            fitness[:m] = fs = self.objective.evaluate_many(xs)
            self._book(xs, fs, np.ones(m, dtype=bool), xs, fs, kind=INIT)
        return positions, fitness

    def step(self) -> bool:
        raise NotImplementedError

    def run(self) -> TrialOutcome:
        while self.step():
            pass
        return self.outcome()

    def outcome(self) -> TrialOutcome:
        return build_outcome(self)


class BbpsoRun(RunScaffold):
    algorithm = "bbpso"
    config_class = BbpsoConfig

    def __init__(self, objective, config=None, **kwargs):
        super().__init__(objective, config, **kwargs)
        self.pbest, self.pbest_f = self._init_population(self.config.np_)
        g = int(self.pbest_f.argmin())
        self.gbest = self.pbest[g].copy()
        self.gbest_f = float(self.pbest_f[g])

    def step(self) -> bool:
        m = self._sweep_size(self.config.np_)
        if m == 0:
            return False
        pbest, pbest_f = self.pbest[:m], self.pbest_f[:m]
        samples = _between(self.rng, pbest, self.gbest, self.lower, self.upper)
        fs = self.objective.evaluate_many(samples)
        improved = fs < pbest_f
        going = self._book(samples, fs, improved, pbest, pbest_f)
        np.copyto(pbest, samples, where=improved[:, None])
        np.copyto(pbest_f, fs, where=improved)
        g = int(self.pbest_f.argmin())
        if self.pbest_f[g] < self.gbest_f:
            self.gbest = self.pbest[g].copy()
            self.gbest_f = float(self.pbest_f[g])
        return going


class BbfwaRun(RunScaffold):
    algorithm = "bbfwa"
    config_class = BbfwaConfig

    def __init__(self, objective, config=None, **kwargs):
        super().__init__(objective, config, **kwargs)
        self.span = objective.spec.span.astype(float)
        self.amplitude = self.span.copy()  # the amplitude is updated in place
        positions, fitness = self._init_population(1)
        self.center = positions[0]
        self.center_f = float(fitness[0])

    def step(self) -> bool:
        m = self._sweep_size(self.config.np_)
        if m == 0:
            return False
        sparks = _clamp(_sparks(self.rng, self.center, self.amplitude, m), self.lower, self.upper)
        fs = self.objective.evaluate_many(sparks)
        j = int(fs.argmin())
        improved = fs[j] < self.center_f
        taken = (np.arange(m) == j) & improved
        going = self._book(sparks, fs, taken, self.center, self.center_f,
                           particle=np.zeros(m, dtype=int))
        if improved:
            self.center = sparks[j].copy()
            self.center_f = float(fs[j])
            self.amplitude *= AMP_GROW
        else:
            # a tie counts as no improvement
            self.amplitude *= AMP_SHRINK
        _clamp(self.amplitude, AMP_FLOOR, self.span)
        return going


class GbdeRun(RunScaffold):
    algorithm = "gbde"
    config_class = GbdeConfig

    def __init__(self, objective, config=None, **kwargs):
        super().__init__(objective, config, **kwargs)
        self.positions, self.fitness = self._init_population(self.config.np_)

    def step(self) -> bool:
        m = self._sweep_size(self.config.np_)
        if m == 0:
            return False
        best = self.positions[int(self.fitness.argmin())]
        positions, fitness = self.positions[:m], self.fitness[:m]
        mutants = _between(self.rng, best, positions, self.lower, self.upper)
        cr = _clamped_cr(self.rng, m, CR_MEAN, CR_STD)
        jrand = self.rng.integers(0, positions.shape[1], size=m)
        cross = self.rng.random(positions.shape) < cr[:, None]
        cross[np.arange(m), jrand] = True
        trials = np.where(cross, mutants, positions)
        fs = self.objective.evaluate_many(trials)
        selected = fs <= fitness
        going = self._book(trials, fs, selected, positions, fitness)
        np.copyto(positions, trials, where=selected[:, None])
        np.copyto(fitness, fs, where=selected)
        return going

