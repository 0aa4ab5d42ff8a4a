"""The package's own numerics against scipy, bit for bit.

The tilted double well's optimum comes from a port of scipy's ``brentq`` and
the rank tables from an average-rank count that stands in for
``scipy.stats.rankdata(method="average")``.  scipy is a test dependency only,
so these checks skip where it is missing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareopt.benchmarks import DoubleWellParams, _brentq, double_well
from bareopt.harness import _average_ranks


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(v0=st.floats(1e-3, 1e3), a=st.floats(1e-3, 1e3),
       tilt=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_brentq_port_finds_scipys_root_of_the_tilted_well(v0, a, tilt):
    brentq = pytest.importorskip("scipy.optimize").brentq
    # the lower well is present while delta < 24 * v0 / a
    delta = tilt * 24.0 * v0 / a

    def slope(x):
        return 4.0 * v0 * x * (x * x - a * a) / a ** 4 + delta

    if slope(-2.0 * a) >= 0.0:
        return
    expected = brentq(slope, -2.0 * a, -a, xtol=1e-14)
    assert _brentq(slope, -2.0 * a, -a, xtol=1e-14).hex() == expected.hex()
    spec = double_well(DoubleWellParams(dim=1, v0=v0, a=a, delta=delta))
    assert spec.optimum_position[0].hex() == expected.hex()


@pytest.mark.parametrize("f, lo, hi, xtol", [
    (math.cos, 0.0, 3.0, 2e-12),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2e-12),
    (lambda x: (x - 0.3) ** 7, -1.0, 4.0, 1e-6),
    (lambda x: x - 1.0, 1.0, 2.0, 1e-12),
])
def test_brentq_port_matches_scipy_on_other_functions(f, lo, hi, xtol):
    brentq = pytest.importorskip("scipy.optimize").brentq
    assert _brentq(f, lo, hi, xtol).hex() == brentq(f, lo, hi, xtol=xtol).hex()


def test_brentq_port_raises_where_scipy_does():
    brentq = pytest.importorskip("scipy.optimize").brentq
    steep = lambda x: (x - 0.3) ** 7  # noqa: E731
    with pytest.raises(RuntimeError):
        brentq(steep, -1.0, 4.0, xtol=1e-30, maxiter=5)
    with pytest.raises(RuntimeError, match="5 iterations"):
        _brentq(steep, -1.0, 4.0, 1e-30, maxiter=5)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(math.cos, 0.0, 1.0, 1e-12)


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
