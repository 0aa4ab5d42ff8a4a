"""Benchmark objectives and budget-metered evaluation.

All objectives are minimization problems on an axis-aligned box with a known
global optimum.  Implementations are vectorized: they accept a single point
of shape (dim,) or a batch of shape (m, dim) and reduce over the last axis
with ``np.add.reduce`` and ``np.multiply.reduce``: np.sum and np.prod, unwrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "BudgetExhausted",
    "ObjectiveSpec",
    "BudgetedObjective",
    "DoubleWellParams",
    "make_benchmark",
    "double_well",
    "get_objective",
    "registry_names",
    "SCHWEFEL_OPTIMUM",
]

# Position of the Schwefel minimum, same value in every coordinate.
SCHWEFEL_OPTIMUM = 420.968746


class BudgetExhausted(Exception):
    """Raised when an evaluation is attempted on a spent budget."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """A boxed minimization objective with a known global optimum."""

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

    def evaluate(self, x) -> float:
        """Objective value at a single point of shape (dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"{self.name} expects shape ({self.dim},), got {x.shape}"
            )
        return float(self._impl(x))

    def as_batch(self, xs) -> np.ndarray:
        """``xs`` as a float array, checked to have shape (m, dim)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"{self.name} expects shape (m, {self.dim}), got {xs.shape}")
        return xs

    def evaluate_many(self, xs) -> np.ndarray:
        """Objective values for a batch of shape (m, dim)."""
        return np.asarray(self._impl(self.as_batch(xs)), dtype=float)


def _box(dim: int, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    return np.full(dim, float(low)), np.full(dim, float(high))


# --- standard test functions -------------------------------------------------


def _griewank(x):
    """Global min: f(0,...,0) = 0."""
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    s = np.add.reduce(x * x, axis=-1) / 4000.0
    p = np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
    return s - p + 1.0


def _rastrigin(x):
    """Global min: f(0,...,0) = 0."""
    n = x.shape[-1]
    return 10.0 * n + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def _ackley(x):
    """Global min: f(0,...,0) = 0."""
    n = x.shape[-1]
    q = np.sqrt(np.add.reduce(x * x, axis=-1) / n)
    c = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n
    return -20.0 * np.exp(-0.2 * q) - np.exp(c) + 20.0 + np.e


def _levy(x):
    """Global min: f(1,...,1) = 0."""
    w = 1.0 + (x - 1.0) / 4.0
    head = np.sin(np.pi * w[..., 0]) ** 2
    mid = np.add.reduce(
        (w[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[..., :-1] + 1.0) ** 2),
        axis=-1,
    )
    tail = (w[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[..., -1]) ** 2)
    return head + mid + tail


def _alpine(x):
    """Global min: f(0,...,0) = 0."""
    return np.add.reduce(np.abs(x * np.sin(x) + 0.1 * x), axis=-1)


def _schwefel(x):
    """Global min near f(420.9687,...) = 0; tiny positive residual remains."""
    n = x.shape[-1]
    return 418.9829 * n - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _sphere(x):
    """Global min: f(0,...,0) = 0."""
    return np.add.reduce(x * x, axis=-1)


def _sum_squares(x):
    """Global min: f(0,...,0) = 0.  Weighted sphere with weight i per axis."""
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    return np.add.reduce(i * x * x, axis=-1)


def _rotated_hyper_ellipsoid(x):
    """Global min: f(0,...,0) = 0.  Sum of squared prefix sums."""
    c = np.cumsum(x, axis=-1)
    return np.add.reduce(c * c, axis=-1)


def _ellipsoidal(x):
    """Global min: f(1,2,...,n) = 0."""
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    return np.add.reduce((x - i) ** 2, axis=-1)


def _sum_diff_powers(x):
    """Global min: f(0,...,0) = 0.  Exponent i+1 on axis i (1-based)."""
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    return np.add.reduce(np.abs(x) ** (i + 1), axis=-1)


def _zakharov(x):
    """Global min: f(0,...,0) = 0."""
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    s1 = np.add.reduce(x * x, axis=-1)
    s2 = np.add.reduce(0.5 * i * x, axis=-1)
    return s1 + s2 ** 2 + s2 ** 4


# id -> (title, impl, low, high, optimum kind)
_TABLE = {
    1: ("Griewank", _griewank, -100.0, 100.0, "zeros"),
    2: ("Rastrigin", _rastrigin, -5.12, 5.12, "zeros"),
    3: ("Ackley", _ackley, -32.77, 32.77, "zeros"),
    4: ("Levy", _levy, -10.0, 10.0, "ones"),
    5: ("Alpine", _alpine, 0.0, 10.0, "zeros"),
    6: ("Schwefel", _schwefel, -500.0, 500.0, "schwefel"),
    7: ("Sphere", _sphere, -5.12, 5.12, "zeros"),
    8: ("SumSquares", _sum_squares, -10.0, 10.0, "zeros"),
    9: ("RotatedHyperEllipsoid", _rotated_hyper_ellipsoid, -65.54, 65.54, "zeros"),
    10: ("Ellipsoidal", _ellipsoidal, -100.0, 100.0, "arange"),
    11: ("SumOfDifferentPowers", _sum_diff_powers, -1.0, 1.0, "zeros"),
    12: ("Zakharov", _zakharov, -5.0, 10.0, "zeros"),
}


def make_benchmark(function_id: int, dim: int) -> ObjectiveSpec:
    """Build suite function F1..F12 at the given dimension."""
    if function_id not in _TABLE:
        raise ValueError(f"unknown benchmark id {function_id}; known ids are 1..12")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    _, impl, low, high, opt_kind = _TABLE[function_id]
    lower, upper = _box(dim, low, high)
    if opt_kind == "zeros":
        opt = np.zeros(dim)
    elif opt_kind == "ones":
        opt = np.ones(dim)
    elif opt_kind == "arange":
        opt = np.arange(1, dim + 1, dtype=float)
    else:
        opt = np.full(dim, SCHWEFEL_OPTIMUM)
    return ObjectiveSpec(
        name=f"F{function_id}",
        dim=dim,
        lower_bound=lower,
        upper_bound=upper,
        optimum_position=opt,
        optimum_value=0.0,
        _impl=impl,
    )


# --- double-well landscape ---------------------------------------------------


@dataclass(frozen=True)
class DoubleWellParams:
    """Quartic double-well parameters: barrier height v0, well position a, tilt delta."""

    dim: int
    v0: float = 1.0
    a: float = 2.0
    delta: float = 0.05


def double_well(params: DoubleWellParams) -> ObjectiveSpec:
    """Separable quartic double well, per dimension v0*(x^2-a^2)^2/a^4 + delta*x.

    With delta = 0 the wells at x = -a and x = +a are degenerate with value 0.
    A positive delta tilts the landscape so the negative well becomes the
    unique global minimum; the stored optimum is the lowest root of the
    slope, in closed form.
    """
    if params.dim < 1:
        raise ValueError("dim must be at least 1")
    if params.a == 0:
        raise ValueError("well position a must be nonzero")
    if params.v0 <= 0:
        raise ValueError("barrier height v0 must be positive")
    if params.delta < 0:
        raise ValueError("tilt delta must be nonnegative")
    v0, a, delta = params.v0, abs(params.a), params.delta

    def impl(x, v0=v0, a=a, delta=delta):
        return np.add.reduce(v0 * (x * x - a * a) ** 2 / a ** 4 + delta * x, axis=-1)

    if delta == 0.0:
        x_star = -a
        per_dim = 0.0
    else:
        def slope(x):
            return 4.0 * v0 * x * (x * x - a * a) / a ** 4 + delta

        if slope(-2.0 * a) >= 0.0:
            raise ValueError("tilt delta is too large, the lower well vanishes")
        # the lowest root of x^3 - a^2 x + delta a^4 / (4 v0) by the cubic
        # formula, trigonometric for c <= 1 (three real roots) and hyperbolic
        # for c > 1 (one); c holds no a^4, so it cannot overflow.  One Newton
        # step brings the root to within 2 ulp of the exact one
        c = 3.0 * math.sqrt(3.0) / 8.0 * delta * a / v0
        r = 2.0 * a / math.sqrt(3.0)
        if c <= 1.0:
            x_star = r * math.cos(math.acos(-c) / 3.0 - 4.0 * math.pi / 3.0)
        else:
            x_star = -r * math.cosh(math.acosh(c) / 3.0)
        x_star -= slope(x_star) / (4.0 * v0 * (3.0 * x_star * x_star - a * a) / a ** 4)
        x_star = min(x_star, -a)  # the root lies below -a; a tiny tilt rounds it above
        per_dim = v0 * (x_star * x_star - a * a) ** 2 / a ** 4 + delta * x_star

    lower, upper = _box(params.dim, -2.0 * a, 2.0 * a)
    return ObjectiveSpec(
        name="double_well",
        dim=params.dim,
        lower_bound=lower,
        upper_bound=upper,
        optimum_position=np.full(params.dim, x_star),
        optimum_value=params.dim * per_dim,
        _impl=impl,
    )


# --- registry ----------------------------------------------------------------


def registry_names() -> list[str]:
    """All objective names accepted by get_objective."""
    return [f"F{i}" for i in sorted(_TABLE)] + ["double_well"]


def get_objective(name: str, dim: int) -> ObjectiveSpec:
    """Resolve an objective by registry name, case-insensitive."""
    key = str(name).strip().lower()
    if key.startswith("f") and key[1:].isdigit():
        return make_benchmark(int(key[1:]), dim)
    if key == "double_well":
        return double_well(DoubleWellParams(dim=dim))
    raise ValueError(
        f"unknown objective {name!r}; known names: {', '.join(registry_names())}"
    )


# --- budget metering ----------------------------------------------------------


class BudgetedObjective:
    """Wraps an ObjectiveSpec and counts every evaluation against a cap.

    An evaluation attempted at the cap raises BudgetExhausted instead of
    silently evaluating.  A NaN value is reported as +inf, so every
    comparison a run makes ranks it as worst.  Batch callers are expected to
    slice their batch to ``remaining`` first; an oversized or misshapen batch
    raises without consuming budget, and the shape is checked first.
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

    def evaluate(self, x) -> float:
        if self._used >= self.max_fes:
            raise BudgetExhausted(f"budget of {self.max_fes} evaluations is spent")
        value = self.spec.evaluate(x)
        self._used += 1
        return math.inf if math.isnan(value) else value

    def evaluate_many(self, xs) -> np.ndarray:
        xs = self.spec.as_batch(xs)
        m = len(xs)
        if m == 0:
            return np.empty(0)
        if m > self.remaining:
            raise BudgetExhausted(f"batch of {m} exceeds remaining budget {self.remaining}")
        # the shape is checked, so skip spec.evaluate_many's second check
        values = np.asarray(self.spec._impl(xs), dtype=float)
        self._used += m
        # fmin(NaN, inf) is inf, and fmin(v, inf) is v bit for bit
        return np.fmin(values, math.inf)
