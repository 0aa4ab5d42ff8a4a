"""Multi-scale Gaussian sampler with barrier-penetration acceptance.

The optimizer runs a small population through sweeps of Gaussian moves at a
sampling scale sigma_s.  Improving moves are always taken; worsening moves
are taken with a probability that decays with the fitness gap, the jump
distance, and an annealed control parameter gamma.  Once the population has
collapsed below the current scale, the worst particle is replaced by the
population mean and the scale is divided down, restarting the cycle on a
finer grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import RunScaffold, _fitness_gap
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

BOUNDS_POLICIES = ("clamp", "reflect", "resample")


@dataclass
class BipConfig:
    """Tuning knobs for the multi-scale sampler.

    ``amplitude_a`` scales the acceptance probability for worsening moves;
    zero disables them entirely and the sampler degenerates to greedy
    parallel descent.  ``success_threshold`` stops the run early once the
    best error reaches it; zero means run out the budget.  ``min_scale``
    stops the run once sigma_s is divided below it; zero disables that stop.
    ``mean_replace`` switches the population-collapse step at each scale
    transition, kept as a flag so its effect can be measured.
    """

    k: int = 15
    amplitude_a: float = 1.0
    anneal_tau: float = 1.0
    scale_divisor: float = 2.0
    min_scale: float = 0.0
    bounds_policy: str = "clamp"
    success_threshold: float = 1e-8
    seed: int = 0
    mean_replace: bool = True

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.amplitude_a < 0:
            raise ValueError("amplitude_a must be nonnegative")
        if self.anneal_tau <= 0:
            raise ValueError("anneal_tau must be positive")
        if self.scale_divisor <= 1:
            raise ValueError("scale_divisor must exceed 1")
        if self.min_scale < 0:
            raise ValueError("min_scale must be nonnegative")
        if self.bounds_policy not in BOUNDS_POLICIES:
            raise ValueError(f"bounds_policy must be one of {BOUNDS_POLICIES}")


def _apply_bounds(xs, lower, upper, policy, rng, reference=None, sigma=None):
    """Fold candidate positions back into the box.

    ``xs`` must be a fresh float array: clamp overwrites it.
    """
    if lower is None or upper is None:
        return xs
    if policy == "clamp":
        # np.clip(xs, lower, upper) bit for bit (signed zeros and NaN
        # included), in place
        np.maximum(xs, lower, out=xs)
        return np.minimum(xs, upper, out=xs)
    if policy == "reflect":
        span = upper - lower
        period = 2.0 * span
        with np.errstate(invalid="ignore"):
            y = np.where(period > 0, np.mod(xs - lower, period), 0.0)
            y = np.where(y > span, period - y, y)
        return lower + y
    # resample: redraw out-of-box coordinates around the reference point,
    # falling back to clamp after a bounded number of tries
    out = xs
    for _ in range(100):
        bad = (out < lower) | (out > upper)
        if not bad.any():
            return out
        fresh = reference + sigma * rng.standard_normal(out.shape)
        out = np.where(bad, fresh, out)
    return np.clip(out, lower, upper)


def gaussian_step(x, sigma, rng, lower=None, upper=None, policy="clamp"):
    """Propose x + sigma * N(0, I) and fold the result back into the box.

    ``x`` may be one point of shape (n,) or a batch of shape (m, n); the
    proposal has the same shape.  With no bounds given the raw step is
    returned as-is.
    """
    if policy not in BOUNDS_POLICIES:
        raise ValueError(f"policy must be one of {BOUNDS_POLICIES}")
    x = np.asarray(x, dtype=float)
    step = rng.standard_normal(x.shape)  # x + sigma * N(0, I) bit for bit, in place
    step *= sigma
    step += x
    return _apply_bounds(step, lower, upper, policy, rng, reference=x, sigma=sigma)


def tunneling_probability(delta_f, delta_x, gamma, amplitude_a=1.0):
    """Acceptance chance for a worsening move.

    min(1, A * exp(-delta_x * sqrt(delta_f) / gamma)) for delta_f >= 0.
    Broadcasts over array arguments.  Extreme gaps underflow to exactly 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.count_nonzero(gamma <= 0):
        raise ValueError("gamma must be positive")
    delta_f = np.asarray(delta_f, dtype=float)
    if np.count_nonzero(delta_f < 0):
        raise ValueError("delta_f must be nonnegative for a tunneling decision")
    prob = _tunneling(delta_f, np.asarray(delta_x, dtype=float), gamma, amplitude_a)
    return float(prob) if prob.ndim == 0 else prob


def _tunneling(delta_f, delta_x, gamma, amplitude_a):
    """``tunneling_probability`` on float arrays, without the argument checks."""
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
    probs = _tunneling(delta_f[worse], delta_x[worse], gamma, amplitude_a)
    accept[worse] = rng.random(n_worse) < probs
    return accept, probs


def ground_state_reached(positions, sigma_s) -> bool:
    """True when the population spread has fallen below the sampling scale.

    The spread is the largest per-dimension sample standard deviation
    (n-1 normalization) of ``positions``, shape (k, n).
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim < 2:
        positions = np.atleast_2d(positions)
    k = positions.shape[0]
    if k < 2:
        raise ValueError("population spread needs at least 2 particles")
    # positions.std(axis=0, ddof=1) spelled out with the same operations in
    # the same order; dividing by k - 1 and the square root are monotone, so
    # they are taken after the max without changing a bit
    mean = np.add.reduce(positions, axis=0)
    mean /= k
    dev = positions - mean
    dev *= dev
    sigma_k = math.sqrt(np.add.reduce(dev, axis=0).max() / (k - 1))
    return bool(sigma_k < sigma_s)


def anneal_gamma(gamma0: float, ac: int, tau: float = 1.0) -> float:
    """Exponentially attenuated control parameter gamma0 * exp(-ac / tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if ac < 0:
        raise ValueError("ac must be nonnegative")
    return float(gamma0) * math.exp(-ac / tau)


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

    def __init__(self, objective, config=None, *, events=None, init_position=None):
        super().__init__(objective, config, events=events)
        self.span = objective.spec.max_span
        self.scale_index = 0
        self.sigma_s = self.span
        self.ac = 0
        self.gamma = self.sigma_s
        k, n = self.config.k, objective.spec.dim
        tiled = None
        if init_position is not None:
            start = np.asarray(init_position, dtype=float)
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
        candidates = gaussian_step(
            current, self.sigma_s, self.rng, self.lower, self.upper, cfg.bounds_policy
        )
        cand_f = self.objective.evaluate_many(candidates)
        delta_f = _fitness_gap(cand_f, self.fitness[:m])
        d = candidates - current
        d *= d
        delta_x = np.sqrt(np.add.reduce(d, axis=1))
        accept, probs = accept_moves(delta_f, delta_x, self.gamma, cfg.amplitude_a, self.rng)
        going = self._book(candidates, cand_f, accept, current, self.fitness[:m],
                           delta_f=delta_f, delta_x=delta_x, probs=probs)
        if np.count_nonzero(accept):
            np.copyto(current, candidates, where=accept[:, None])
            np.copyto(self.fitness[:m], cand_f, where=accept)
            self._recheck = True
        self.ac += 1
        self.gamma = anneal_gamma(self.sigma_s, self.ac, cfg.anneal_tau)
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
        """Collapse step and scale division at the end of a scale."""
        cfg = self.config
        if cfg.mean_replace:
            # one metered evaluation (remaining >= 1 is guaranteed by step()):
            # the mean of the whole population, worst included, before anything
            # is replaced; ties for worst go to the lowest index
            mean_x = self.positions.mean(axis=0)
            mean_f = self.objective.evaluate(mean_x)
            worst = int(np.argmax(self.fitness))
            self._book(mean_x[None, :], np.array([mean_f]), np.ones(1, dtype=bool),
                       self.positions[worst], self.fitness[worst], kind=MEAN_REPLACE,
                       particle=np.array([worst]))
            self.positions[worst] = mean_x
            self.fitness[worst] = mean_f

        self.scale_index += 1
        try:
            self.sigma_s = self.span / cfg.scale_divisor ** self.scale_index
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
        # only the mean's evaluation, booked above, can end the run here
        if cfg.min_scale > 0 and self.sigma_s < cfg.min_scale:
            self.finished = True

