"""The package's own numerics against exact and reference answers.

The tilted double well's optimum comes from the cubic formula and one Newton
step; it is checked against the exact root of the slope, computed in
``fractions.Fraction``.  Its Schrödinger ground state, from a dense
eigensolver, is checked against the harmonic limit and a recorded mass.  The
rank tables come from an average-rank count that
stands in for ``scipy.stats.rankdata(method="average")``, checked bit for bit;
scipy is a test dependency only, so those checks skip where it is missing.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareopt.benchmarks import (
    WELL_A,
    WELL_DELTA,
    WELL_V0,
    BudgetedObjective,
    get_objective,
)
from bareopt.harness import _average_ranks


def hexes(values):
    return [float(v).hex() for v in values]


def exact_slope(x):
    """4 v0 x (x^2 - a^2) / a^4 + delta of the one well, with no rounding."""
    v0, a, delta, x = map(Fraction, (WELL_V0, WELL_A, WELL_DELTA, x))
    return 4 * v0 * x * (x * x - a * a) / a ** 4 + delta


def floats_toward(x, n, y):
    """The n-th float from x toward y."""
    for _ in range(n):
        x = math.nextafter(x, y)
    return x


def test_the_tilted_well_optimum_is_within_2_ulp_of_the_exact_root():
    x = get_objective("double_well", 1).optimum_position[0]
    assert -2.0 * WELL_A <= x <= -WELL_A
    lo, hi = floats_toward(x, 2, -math.inf), floats_toward(x, 2, math.inf)
    # the slope rises through its lowest root
    assert exact_slope(lo) <= 0 <= exact_slope(hi)


def test_the_default_well_keeps_its_optimum():
    spec = get_objective("double_well", 3)
    assert hexes(spec.optimum_position) == ["-0x1.032454f867a6bp+1"] * 3


def well_hamiltonian(hbar, points=1601):
    """H = -(hbar²/2)·d²/dx² + V for the 1-D criterion-6 well, by finite
    differences on its box [-2a, 2a] with psi = 0 at both edges: (the
    interior grid, H as a dense matrix)."""
    spec = get_objective("double_well", 1)
    x, h = np.linspace(spec.lower_bound[0], spec.upper_bound[0], points, retstep=True)
    x = x[1:-1]
    v = BudgetedObjective(spec, len(x)).evaluate_many(x[:, None])
    hop = np.full(len(x) - 1, -hbar * hbar / (2.0 * h * h))
    return x, np.diag(v + hbar * hbar / (h * h)) + np.diag(hop, 1) + np.diag(hop, -1)


def test_the_double_well_ground_state_oracle():
    # small hbar: the harmonic limit of the global well, V(x*) + hbar·omega/2
    # with omega = sqrt(V''(x*)) = sqrt((12 x*² - 4 a²) / a⁴) for v0 = 1, a = 2
    spec = get_objective("double_well", 1)
    x_star = spec.optimum_position[0]
    omega = math.sqrt((12.0 * x_star * x_star - 16.0) / 16.0)
    assert (x_star, omega) == (pytest.approx(-2.0245, abs=1e-4), pytest.approx(1.440, abs=1e-3))
    hbar = 1 / 16
    e0 = np.linalg.eigvalsh(well_hamiltonian(hbar)[1])[0]
    assert e0 == pytest.approx(-0.0558, abs=1e-4)
    assert e0 == pytest.approx(spec.optimum_value + hbar * omega / 2, abs=1e-3)
    # hbar = 1: the 2-D ground state, a product of two 1-D ones, holds 0.798
    # of its mass in the global quadrant x, y < 0
    x, hamiltonian = well_hamiltonian(1.0)
    psi = np.linalg.eigh(hamiltonian)[1][:, 0]
    assert (psi[x < 0] ** 2).sum() ** 2 == pytest.approx(0.798, abs=5e-4)


SPECIAL = [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, math.inf, -math.inf, 5e-324, 1e308]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
                min_size=1, max_size=9))
def test_average_ranks_match_rankdata(values):
    rankdata = pytest.importorskip("scipy.stats").rankdata
    assert hexes(_average_ranks(values)) == hexes(rankdata(values, method="average"))


def test_average_ranks_match_rankdata_on_ties_inf_and_signed_zero():
    rankdata = pytest.importorskip("scipy.stats").rankdata
    values = [0.0, math.inf, -0.0, 1.0, -math.inf, 1.0, math.inf, 0.0]
    ranks = _average_ranks(values)
    assert hexes(ranks) == hexes(rankdata(values, method="average"))
    # the three zeros tie across their sign
    assert ranks[0] == ranks[2] == ranks[7] == 3.0
