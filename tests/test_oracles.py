"""The package's own numerics against exact and reference answers.

The tilted double well's optimum comes from the cubic formula and one Newton
step; it is checked against the exact root of the slope, computed in
``fractions.Fraction``.  The rank tables come from an average-rank count that
stands in for ``scipy.stats.rankdata(method="average")``, checked bit for bit;
scipy is a test dependency only, so those checks skip where it is missing.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bareopt.benchmarks import DoubleWellParams, double_well, get_objective
from bareopt.harness import _average_ranks


def hexes(values):
    return [float(v).hex() for v in values]


def exact_slope(v0, a, delta, x):
    """4 v0 x (x^2 - a^2) / a^4 + delta, with no rounding."""
    v0, a, delta, x = map(Fraction, (v0, a, delta, x))
    return 4 * v0 * x * (x * x - a * a) / a ** 4 + delta


def floats_toward(x, n, y):
    """The n-th float from x toward y."""
    for _ in range(n):
        x = math.nextafter(x, y)
    return x


scale = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def tilted_wells(draw):
    """(v0, a, delta) with the lower well present: c = (3 sqrt 3 / 8) delta a / v0
    below 1 (three real roots), above 1 (one), or delta at most 64 floats under
    24 v0 / a, where the lower well is about to vanish."""
    v0, a = draw(scale), draw(scale)
    top = 24.0 * v0 / a
    c1 = 8.0 / (3.0 * math.sqrt(3.0)) * v0 / a  # delta at c = 1
    tilt = st.floats(0.0, 1.0, exclude_min=True)
    delta = draw(st.one_of(
        tilt.map(lambda t: t * c1),
        tilt.map(lambda t: c1 + t * (top - c1)),
        st.integers(1, 64).map(lambda n: floats_toward(top, n, 0.0)),
    ))
    return v0, a, delta


@settings(max_examples=500, deadline=None)
@given(tilted_wells())
# a tilt so small that the formula rounded the root 1 ulp above -a
@example((1.0, 99.10458562488608, 6.497778356172801e-257))
def test_the_tilted_well_optimum_is_within_2_ulp_of_the_exact_root(well):
    v0, a, delta = well
    try:
        spec = double_well(DoubleWellParams(dim=1, v0=v0, a=a, delta=delta))
    except ValueError as exc:
        # at the top of the range the rounded slope at -2a can already be >= 0
        assert "lower well vanishes" in str(exc) and delta > 23.9 * v0 / a
        return
    x = spec.optimum_position[0]
    assert -2.0 * a <= x <= -a
    lo, hi = floats_toward(x, 2, -math.inf), floats_toward(x, 2, math.inf)
    # the slope rises through its lowest root
    assert exact_slope(v0, a, delta, lo) <= 0 <= exact_slope(v0, a, delta, hi)


def test_the_default_well_keeps_its_optimum():
    spec = get_objective("double_well", 3)
    assert hexes(spec.optimum_position) == ["-0x1.032454f867a6bp+1"] * 3


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
