"""Multi-scale Gaussian sampler with barrier-penetration acceptance.

The optimizer runs a small population through sweeps of Gaussian moves at a
sampling scale sigma_s.  Improving moves are always taken; worsening moves
are taken with a probability that decays with the fitness gap, the jump
distance, and an annealed control parameter gamma.  Once the population has
collapsed below the current scale, the worst particle is replaced by the
population mean and the scale is halved, restarting the cycle on a
finer grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import RunScaffold, _clamp, _fitness_gap, _jumps, _normal
# bench/tracing.py patches bip.build_outcome, so the name must stay importable
from .records import MEAN_REPLACE, SCALE_HALVE, EventBatch, build_outcome  # noqa: F401

__all__ = [
    "BipConfig",
    "BipRun",
    "gaussian_step",
    "tunneling_probability",
    "accept_moves",
    "ground_state_reached",
    "anneal_gamma",
]


@dataclass
class BipConfig:
    """Settings of the multi-scale sampler.

    ``amplitude_a`` scales the acceptance probability for worsening moves;
    zero disables them entirely and the sampler degenerates to greedy
    parallel descent; it must be finite.  ``mean_replace`` switches the
    population-collapse step at each scale transition, kept as a flag so its
    effect can be measured.  ``init_position``, if set, is the one point
    every particle starts at.  The scale halves at each transition and gamma
    anneals as sigma_s * exp(-ac) (``anneal_gamma``); every proposal is
    clamped into the box (``gaussian_step``), as the baselines' proposals are.
    """

    k: int = 15
    amplitude_a: float = 1.0
    seed: int = 0
    mean_replace: bool = True
    init_position: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0 <= self.amplitude_a < math.inf:
            raise ValueError("amplitude_a must be finite and nonnegative")


def gaussian_step(x, sigma, rng, lower, upper):
    """Propose x + sigma * N(0, I), clamped into [lower, upper] in place.

    ``x`` is a float array, one point of shape (n,) or a batch of shape
    (m, n); the proposal has the same shape.  Pass -inf and inf for a bound
    that should not clamp.
    """
    return _clamp(_normal(rng, x, sigma, x.shape), lower, upper)


def tunneling_probability(delta_f, delta_x, gamma, amplitude_a=1.0):
    """Acceptance chance for a worsening move: the kernel ``accept_moves`` calls.

    min(1, A * exp(-delta_x * sqrt(delta_f) / gamma)), broadcast over array
    arguments, for finite delta_f >= 0, delta_x >= 0, gamma > 0 and finite
    A >= 0, the inputs a run gives it; nothing outside that domain is checked.
    Extreme gaps underflow to exactly 0.
    """
    # a denormal gamma overflows the quotient to inf; exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        return np.minimum(1.0, amplitude_a * np.exp(delta_x * np.sqrt(delta_f) / -gamma))


def accept_moves(delta_f, delta_x, gamma, amplitude_a, rng):
    """Which moves of a sweep to take, given their fitness gaps and jump lengths.

    Improving or equal moves are always taken.  Each worsening move is taken
    when a uniform draw falls below its tunneling probability; one draw is
    made per worsening move, in particle order.  With ``amplitude_a`` zero,
    or gamma underflowed to exactly 0 (where the probability's limit is 0),
    worsening moves are rejected without consulting the generator.  Returns
    the boolean accept mask and the tunneling probabilities of the worsening
    moves, or None when no draw was made.
    """
    accept = delta_f <= 0
    n_worse = accept.size - np.count_nonzero(accept)
    if n_worse == 0 or not (amplitude_a > 0 and gamma != 0):
        return accept, None
    worse = ~accept
    probs = tunneling_probability(delta_f[worse], delta_x[worse], gamma, amplitude_a)
    accept[worse] = rng.random(n_worse) < probs
    return accept, probs


def ground_state_reached(positions, sigma_s) -> bool:
    """True when the population spread has fallen below the sampling scale.

    The spread is the largest per-dimension sample standard deviation
    (n-1 normalization) of ``positions``, a float array of shape (k, n)
    with k >= 2, as ``BipConfig`` ensures.
    """
    k = positions.shape[0]
    # positions.std(axis=0, ddof=1) spelled out with the same operations in
    # the same order; dividing by k - 1 and the square root are monotone, so
    # they are taken after the max without changing a bit
    mean = np.add.reduce(positions, axis=0)
    mean /= k
    dev = positions - mean
    dev *= dev
    sigma_k = math.sqrt(np.add.reduce(dev, axis=0).max() / (k - 1))
    return bool(sigma_k < sigma_s)


def anneal_gamma(gamma0: float, ac: int) -> float:
    """Exponentially attenuated control parameter gamma0 * exp(-ac)."""
    return gamma0 * math.exp(-ac)


class BipRun(RunScaffold):
    """One seeded run of the multi-scale sampler over a metered objective.

    ``step()`` advances a single population sweep (plus any scale transition
    it triggers) and returns False once the run has ended; ``run()`` drives
    the loop to completion and returns the TrialOutcome.  An optional
    ``events`` log receives every evaluation and scale change, one batch
    per step.
    """

    algorithm = "bip"
    config_class = BipConfig

    def __init__(self, objective, config=None, **kwargs):
        super().__init__(objective, config, **kwargs)
        self.span = objective.spec.max_span
        self.scale_index = 0
        self.sigma_s = self.span
        self.ac = 0
        self.gamma = self.sigma_s
        k, n = self.config.k, objective.spec.dim
        tiled = None
        if self.config.init_position is not None:
            start = np.asarray(self.config.init_position, dtype=float)
            if start.shape != (n,):
                raise ValueError(f"init_position must have shape ({n},)")
            if not np.all((start >= self.lower) & (start <= self.upper)):
                raise ValueError("init_position lies outside the box")
            tiled = np.tile(start, (k, 1))
        self.positions, self.fitness = self._init_population(k, tiled)
        self._recheck = True  # the spread may have changed since the last check

    # -- main loop ------------------------------------------------------

    def step(self) -> bool:
        """Advance one population sweep; returns False once the run is over."""
        cfg = self.config
        m = self._sweep_size(cfg.k)
        if m == 0:
            return False

        current = self.positions[:m]
        candidates = gaussian_step(current, self.sigma_s, self.rng, self.lower, self.upper)
        cand_f = self.objective.evaluate_many(candidates)
        delta_f = _fitness_gap(cand_f, self.fitness[:m])
        delta_x = _jumps(candidates, current)
        accept, probs = accept_moves(delta_f, delta_x, self.gamma, cfg.amplitude_a, self.rng)
        going = self._book(candidates, cand_f, accept, current, self.fitness[:m],
                           delta_f=delta_f, delta_x=delta_x, probs=probs)
        if np.count_nonzero(accept):
            np.copyto(current, candidates, where=accept[:, None])
            np.copyto(self.fitness[:m], cand_f, where=accept)
            self._recheck = True
        self.ac += 1
        self.gamma = anneal_gamma(self.sigma_s, self.ac)
        if not going:
            return False
        # the check's answer changes only with the positions or the scale: it
        # runs after a sweep that took a move, and after a transition
        if self._recheck:
            self._recheck = ground_state_reached(self.positions, self.sigma_s)
            if self._recheck:
                self._transition_scale()
        return not self.finished

    def _transition_scale(self):
        """Collapse step and scale halving at the end of a scale."""
        if self.config.mean_replace:
            # a metered batch of one (remaining >= 1 is guaranteed by step()):
            # the mean of the whole population, worst included, before anything
            # is replaced; ties for worst go to the lowest index
            mean_x = self.positions.mean(axis=0)
            mean_f = self.objective.evaluate_many(mean_x[None, :])
            worst = int(np.argmax(self.fitness))
            self._book(mean_x[None, :], mean_f, np.ones(1, dtype=bool),
                       self.positions[worst], self.fitness[worst], kind=MEAN_REPLACE,
                       particle=np.array([worst]))
            self.positions[worst] = mean_x
            self.fitness[worst] = mean_f[0]

        self.scale_index += 1
        try:
            # 2.0, not 2: only a float power overflows
            self.sigma_s = self.span / 2.0 ** self.scale_index
        except OverflowError:  # the scale has shrunk past every float: the run ends
            self.finished = True
            return
        self.ac = 0
        self.gamma = self.sigma_s
        if self.events is not None:
            self.events.add(EventBatch(
                np.array([self.objective.evals_used]), np.array([-1]), np.array([SCALE_HALVE]),
                np.zeros(1), np.zeros(1), float(self.gamma), float(self.sigma_s), np.ones(1),
                None, np.array([math.nan])))

