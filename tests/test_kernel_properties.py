"""Property tests for the per-sweep kernels of the sampler and the trace."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bareopt.baselines import _row_norms
from bareopt.bip import (
    BOUNDS_POLICIES,
    BipConfig,
    Particle,
    accept_sample,
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

    @settings(max_examples=50, deadline=None)
    @given(populations)
    def test_particle_lists_match_arrays(self, x):
        spread = x.std(axis=0, ddof=1).max()
        particles = [Particle(row.copy(), 0.0) for row in x]
        for s in (spread, np.nextafter(spread, math.inf)):
            assert ground_state_reached(particles, s) is bool(spread < s)


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


class TestAcceptSample:
    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 100.0, exclude_min=True),
        arrays(np.float64, st.integers(1, 8), elements=st.floats(-3.0, 3.0)),
        st.floats(1e-3, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_worsening_move_spends_one_draw(self, gap, step, gamma, seed):
        cur = Particle(np.zeros(step.size), 0.0)
        cand = Particle(step, gap)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        kept, tunneled, prob = accept_sample(cur, cand, gamma, BipConfig(), rng)
        delta_x = math.sqrt(float(np.add.reduce(step * step)))
        assert prob == tunneling_probability(gap, delta_x, gamma)
        assert tunneled is (twin.random() < prob)
        assert kept is (cand if tunneled else cur)
        assert rng.random() == twin.random()


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
