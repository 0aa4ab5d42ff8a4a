"""Property tests for the per-sweep kernels of the sampler and the trace."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bareopt.baselines import _row_norms
from bareopt.bip import (
    BOUNDS_POLICIES,
    accept_moves,
    gaussian_step,
    ground_state_reached,
    tunneling_probability,
)
from bareopt.records import ErrorTrace

coords = st.floats(-1e6, 1e6, allow_nan=False)
populations = st.tuples(st.integers(2, 20), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=coords))


class TestGroundStateReached:
    @settings(max_examples=200, deadline=None)
    @given(populations, st.floats(0.0, 1e6))
    def test_matches_the_sample_std_bit_for_bit(self, x, sigma_s):
        spread = x.std(axis=0, ddof=1).max()
        # the drawn scale, and the spread itself and its successor, where a
        # last-bit difference would flip the answer
        for s in (sigma_s, spread, np.nextafter(spread, math.inf)):
            assert ground_state_reached(x, s) is bool(spread < s)


class StridedModuloTrace(ErrorTrace):
    """The trace as first written: an index mask ``indices % stride == 0``."""

    def extend(self, first_index, fitnesses):
        fs = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        if fs.size == 0:
            return
        running = np.minimum(np.minimum.accumulate(fs), self._best)
        self._best = float(running[-1])
        errors = np.maximum(running - self.optimum, 0.0)
        indices = np.arange(first_index, first_index + fs.size)
        keep = indices % self.stride == 0
        self.pairs.extend(zip(indices[keep].tolist(), errors[keep].tolist()))
        while len(self.pairs) > self.cap:
            self.stride *= 2
            self.pairs = [p for p in self.pairs if p[0] % self.stride == 0]


class TestErrorTraceExtend:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.floats(-1e3, 1e3), max_size=40), min_size=1, max_size=30),
        st.integers(2, 12),
        st.floats(-10.0, 10.0),
    )
    def test_matches_the_index_mask_version(self, batches, cap, optimum):
        new, old = ErrorTrace(optimum, cap=cap), StridedModuloTrace(optimum, cap=cap)
        first = 1
        for batch in batches:
            new.extend(first, batch)
            old.extend(first, batch)
            first += len(batch)
            assert new.pairs == old.pairs
            assert new.stride == old.stride
            assert new.best_fitness == old.best_fitness
        assert new.finalize(first - 1, 0.0) == old.finalize(first - 1, 0.0)


class TestGaussianStep:
    @settings(max_examples=150, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
               elements=st.floats(-20.0, 20.0)),
        st.floats(0.0, 50.0),
        st.sampled_from(BOUNDS_POLICIES),
        st.integers(0, 2**32 - 1),
    )
    def test_never_mutates_its_input(self, x, sigma, policy, seed):
        lower, upper = np.full(x.shape[1], -5.0), np.full(x.shape[1], 5.0)
        before = x.copy()
        out = gaussian_step(x, sigma, np.random.default_rng(seed), lower, upper, policy)
        assert np.array_equal(x, before)
        assert out is not x and out.shape == x.shape
        assert ((out >= lower) & (out <= upper)).all()


# a sweep's fitness gaps, mixing improving, tied and worsening moves, with
# a jump length for each
gaps = st.one_of(st.floats(-100.0, 0.0), st.just(0.0),
                 st.floats(0.0, 100.0, exclude_min=True))
sweeps = st.integers(1, 20).flatmap(lambda m: st.tuples(
    arrays(np.float64, m, elements=gaps),
    arrays(np.float64, m, elements=st.floats(0.0, 10.0))))


class TestAcceptSample:
    """``accept_moves`` on a whole sweep."""

    @settings(max_examples=200, deadline=None)
    @given(sweeps, st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
    def test_worsening_move_spends_one_draw(self, sweep, gamma, seed):
        delta_f, delta_x = sweep
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        accept, probs = accept_moves(delta_f, delta_x, gamma, 1.0, rng)
        worse = delta_f > 0
        assert accept[~worse].all()
        if worse.any():
            assert np.array_equal(
                probs, tunneling_probability(delta_f[worse], delta_x[worse], gamma))
            # one draw per worsening move, in particle order
            draws = np.array([twin.random() for _ in range(np.count_nonzero(worse))])
            assert np.array_equal(accept[worse], draws < probs)
        else:
            assert probs is None
        assert rng.random() == twin.random()

    @settings(max_examples=100, deadline=None)
    @given(sweeps, st.sampled_from([(0.0, 1.0), (1.0, 0.0)]), st.integers(0, 2**32 - 1))
    def test_no_amplitude_or_no_gamma_rejects_without_drawing(self, sweep, a_gamma,
                                                               seed):
        delta_f, delta_x = sweep
        amplitude_a, gamma = a_gamma
        rng = np.random.default_rng(seed)
        accept, probs = accept_moves(delta_f, delta_x, gamma, amplitude_a, rng)
        assert probs is None
        assert np.array_equal(accept, delta_f <= 0)
        assert rng.random() == np.random.default_rng(seed).random()


class TestRowNorms:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
            lambda shape: st.tuples(arrays(np.float64, shape, elements=coords),
                                    arrays(np.float64, shape, elements=coords))),
    )
    def test_match_the_norm_of_each_row_bit_for_bit(self, pair):
        # the baselines' per-event delta_x was np.linalg.norm of one row's difference
        a, b = pair
        expected = [np.linalg.norm(a[i] - b[i]) for i in range(len(a))]
        assert _row_norms(a - b).tolist() == expected
