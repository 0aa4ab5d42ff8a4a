"""Benchmark objectives and the budget meter that evaluates them.

All objectives are minimization problems on an axis-aligned box with a known
global optimum.  Each objective is one row of ``_TABLE``, keyed by name;
``get_objective`` builds its ``ObjectiveSpec`` (data and kernel) at a given
dimension, and a ``BudgetedObjective`` is the one way to evaluate it.
Kernels take a batch of shape (m, dim) and reduce over the last axis with
``np.add.reduce`` and ``np.multiply.reduce``: np.sum and np.prod, unwrapped.
A single point is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "BudgetExhausted",
    "ObjectiveSpec",
    "BudgetedObjective",
    "get_objective",
    "registry_names",
    "SCHWEFEL_OPTIMUM",
    "WELL_V0",
    "WELL_A",
    "WELL_DELTA",
]

# Position of the Schwefel minimum, same value in every coordinate.
SCHWEFEL_OPTIMUM = 420.968746

# The double well's barrier height, well position and tilt.
WELL_V0, WELL_A, WELL_DELTA = 1.0, 2.0, 0.05


class BudgetExhausted(Exception):
    """Raised when a batch asks for more evaluations than the budget has left."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """A boxed minimization objective with a known global optimum: its data
    and its batch kernel ``_impl``.  Evaluate it through a BudgetedObjective."""

    name: str
    dim: int
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    optimum_position: np.ndarray
    optimum_value: float
    _impl: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def span(self) -> np.ndarray:
        """Per-dimension box width."""
        return self.upper_bound - self.lower_bound

    @property
    def max_span(self) -> float:
        return float(np.max(self.span))


# --- standard test functions -------------------------------------------------
#
# Each kernel is a formula in x and the axis indices i = 1..n, which
# get_objective binds once per objective.


def _griewank(x, i):
    """Global min: f(0,...,0) = 0."""
    s = np.add.reduce(x * x, axis=-1) / 4000.0
    p = np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
    return s - p + 1.0


def _rastrigin(x, i):
    """Global min: f(0,...,0) = 0."""
    return 10.0 * len(i) + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def _ackley(x, i):
    """Global min: f(0,...,0) = 0."""
    q = np.sqrt(np.add.reduce(x * x, axis=-1) / len(i))
    c = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / len(i)
    return -20.0 * np.exp(-0.2 * q) - np.exp(c) + 20.0 + np.e


def _levy(x, i):
    """Global min: f(1,...,1) = 0."""
    w = 1.0 + (x - 1.0) / 4.0
    head = np.sin(np.pi * w[..., 0]) ** 2
    mid = np.add.reduce(
        (w[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[..., :-1] + 1.0) ** 2),
        axis=-1,
    )
    tail = (w[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[..., -1]) ** 2)
    return head + mid + tail


def _alpine(x, i):
    """Global min: f(0,...,0) = 0."""
    return np.add.reduce(np.abs(x * np.sin(x) + 0.1 * x), axis=-1)


def _schwefel(x, i):
    """Global min near f(420.9687,...) = 0; tiny positive residual remains."""
    return 418.9829 * len(i) - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _sphere(x, i):
    """Global min: f(0,...,0) = 0."""
    return np.add.reduce(x * x, axis=-1)


def _sum_squares(x, i):
    """Global min: f(0,...,0) = 0.  Weighted sphere with weight i per axis."""
    return np.add.reduce(i * x * x, axis=-1)


def _rotated_hyper_ellipsoid(x, i):
    """Global min: f(0,...,0) = 0.  Sum of squared prefix sums."""
    c = np.cumsum(x, axis=-1)
    return np.add.reduce(c * c, axis=-1)


def _ellipsoidal(x, i):
    """Global min: f(1,2,...,n) = 0."""
    return np.add.reduce((x - i) ** 2, axis=-1)


def _sum_diff_powers(x, i):
    """Global min: f(0,...,0) = 0.  Exponent i+1 on axis i."""
    return np.add.reduce(np.abs(x) ** (i + 1), axis=-1)


def _zakharov(x, i):
    """Global min: f(0,...,0) = 0."""
    s1 = np.add.reduce(x * x, axis=-1)
    s2 = np.add.reduce(0.5 * i * x, axis=-1)
    return s1 + s2 ** 2 + s2 ** 4


# --- double-well landscape ---------------------------------------------------


def _double_well(x, i):
    """The separable tilted double well, per axis
    v0*(x^2-a^2)^2/a^4 + delta*x with v0 = WELL_V0 = 1 (barrier height),
    a = WELL_A = 2 (wells near x = -a and x = +a) and delta = WELL_DELTA = 0.05
    (tilt), on the box [-2a, 2a].  The tilt makes the negative well the
    unique global minimum."""
    v0, a, delta = WELL_V0, WELL_A, WELL_DELTA
    return np.add.reduce(v0 * (x * x - a * a) ** 2 / a ** 4 + delta * x, axis=-1)


def _well_minimum() -> tuple[float, float]:
    """The double well's minimizing coordinate and its value per axis: the
    lowest root of the slope 4 v0 x (x^2 - a^2) / a^4 + delta by the
    trigonometric cubic formula (c < 1: three real roots); one Newton step
    brings it to within 2 ulp of the exact root, which lies 0.0245 below -a."""
    v0, a, delta = WELL_V0, WELL_A, WELL_DELTA
    c = 3.0 * math.sqrt(3.0) / 8.0 * delta * a / v0
    r = 2.0 * a / math.sqrt(3.0)
    x = r * math.cos(math.acos(-c) / 3.0 - 4.0 * math.pi / 3.0)
    x -= ((4.0 * v0 * x * (x * x - a * a) / a ** 4 + delta)
          / (4.0 * v0 * (3.0 * x * x - a * a) / a ** 4))
    return x, v0 * (x * x - a * a) ** 2 / a ** 4 + delta * x


# --- registry ----------------------------------------------------------------
#
# name -> (kernel, low, high, optimum coordinate or None for x_i = i,
#          optimum value per axis)
_TABLE = {
    "F1": (_griewank, -100.0, 100.0, 0.0, 0.0),
    "F2": (_rastrigin, -5.12, 5.12, 0.0, 0.0),
    "F3": (_ackley, -32.77, 32.77, 0.0, 0.0),
    "F4": (_levy, -10.0, 10.0, 1.0, 0.0),
    "F5": (_alpine, 0.0, 10.0, 0.0, 0.0),
    "F6": (_schwefel, -500.0, 500.0, SCHWEFEL_OPTIMUM, 0.0),
    "F7": (_sphere, -5.12, 5.12, 0.0, 0.0),
    "F8": (_sum_squares, -10.0, 10.0, 0.0, 0.0),
    "F9": (_rotated_hyper_ellipsoid, -65.54, 65.54, 0.0, 0.0),
    "F10": (_ellipsoidal, -100.0, 100.0, None, 0.0),
    "F11": (_sum_diff_powers, -1.0, 1.0, 0.0, 0.0),
    "F12": (_zakharov, -5.0, 10.0, 0.0, 0.0),
    "double_well": (_double_well, -2.0 * WELL_A, 2.0 * WELL_A, *_well_minimum()),
}


def registry_names() -> list[str]:
    """All objective names accepted by get_objective."""
    return list(_TABLE)


def get_objective(name: str, dim: int) -> ObjectiveSpec:
    """Build the objective ``name`` at dimension ``dim``; the name is looked
    up case-insensitively, surrounding spaces stripped."""
    key = {k.lower(): k for k in _TABLE}.get(str(name).strip().lower())
    if key is None:
        raise ValueError(f"unknown objective {name!r}; known names: {', '.join(_TABLE)}")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    kernel, low, high, opt, per_axis = _TABLE[key]
    i = np.arange(1, dim + 1)
    return ObjectiveSpec(
        name=key,
        dim=dim,
        lower_bound=np.full(dim, low),
        upper_bound=np.full(dim, high),
        optimum_position=i.astype(float) if opt is None else np.full(dim, opt),
        optimum_value=dim * per_axis,
        _impl=partial(kernel, i=i),
    )


# --- budget metering ----------------------------------------------------------


class BudgetedObjective:
    """The one evaluator of an ObjectiveSpec: it counts every evaluated row
    against a cap, and is the one place a NaN value is handled.

    Callers slice their batch to ``remaining`` first: a batch larger than
    that raises BudgetExhausted, and a misshapen one ValueError, without
    consuming budget; the shape is checked first.  A NaN value is reported
    as +inf, so every comparison a run makes ranks it as worst.  To evaluate
    a spec outside a run, meter it with a budget of one batch:
    ``BudgetedObjective(spec, len(xs)).evaluate_many(xs)``.
    """

    def __init__(self, spec: ObjectiveSpec, max_fes: int):
        if max_fes < 0:
            raise ValueError("max_fes must be nonnegative")
        self.spec = spec
        self.max_fes = int(max_fes)
        self._used = 0

    @property
    def evals_used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int:
        return self.max_fes - self._used

    def evaluate_many(self, xs) -> np.ndarray:
        """Objective values for a batch of shape (m, dim), NaN reported as +inf."""
        spec, xs = self.spec, np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != spec.dim:
            raise ValueError(f"{spec.name} expects shape (m, {spec.dim}), got {xs.shape}")
        m = len(xs)
        if m > self.remaining:
            raise BudgetExhausted(f"batch of {m} exceeds remaining budget {self.remaining}")
        values = spec._impl(xs)
        self._used += m
        # fmin(NaN, inf) is inf, and fmin(v, inf) is v bit for bit
        return np.fmin(values, math.inf)
