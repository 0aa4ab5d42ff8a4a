"""Property tests for the per-sweep kernels of the sampler and the baselines,
and for the trace."""

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bareopt.baselines import AMP_FLOOR, _between, _clamped_cr, _jumps, _sparks
from bareopt.bip import (
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


class ListTrace:
    """The error curve as first kept: a list of (index, error) pairs, thinned
    by a list comprehension whenever it outgrows the cap."""

    def __init__(self, optimum_value, cap=2000):
        self.optimum = float(optimum_value)
        self.cap = int(cap)
        self.stride = 1
        self.pairs = []
        self._best = math.inf

    def extend(self, first_index, fitnesses):
        fs = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        if fs.size == 0:
            return
        running = np.fmin.accumulate(fs)
        np.fmin(running, self._best, out=running)
        self._best = float(running[-1])
        start = -first_index % self.stride
        errors = np.maximum(running[start::self.stride] - self.optimum, 0.0)
        self.pairs.extend(zip(range(first_index + start, first_index + fs.size, self.stride),
                              errors.tolist()))
        while len(self.pairs) > self.cap:
            self._double_stride()

    def finalize(self, last_index, final_error):
        if self.pairs and self.pairs[-1][0] == last_index:
            self.pairs[-1] = (last_index, float(final_error))
        elif last_index > 0:
            if len(self.pairs) >= self.cap:
                self._double_stride()
            self.pairs.append((last_index, float(final_error)))
        return self.pairs

    def _double_stride(self):
        self.stride *= 2
        self.pairs = [p for p in self.pairs if p[0] % self.stride == 0]


def same_pairs(a, b):
    return len(a) == len(b) and all(
        i == j and (e == f or (math.isnan(e) and math.isnan(f)))
        for (i, e), (j, f) in zip(a, b))


# the values the meter hands a trace: finite or infinite, never NaN
fitness_values = st.one_of(st.floats(-1e3, 1e3),
                           st.sampled_from([math.inf, -math.inf]))


class TestErrorTraceExtend:
    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(st.lists(fitness_values, max_size=40), min_size=1, max_size=30),
        st.integers(2, 12),
        st.floats(-10.0, 10.0),
    )
    def test_matches_the_list_version(self, batches, cap, optimum):
        new, old = ErrorTrace(optimum, cap=cap), ListTrace(optimum, cap=cap)
        first = 1
        for batch in batches:
            # each point is its own fitness, so the best point can be checked
            points = np.array(batch, dtype=float).reshape(-1, 1)
            new.extend(first, points, batch)
            old.extend(first, batch)
            first += len(batch)
            last = first - 1
            assert new.best_fitness == old._best
            # the best point, as the runs kept it before the trace did: none
            # until a value below +inf
            if old._best == math.inf:
                assert new.best_position is None
                final_error = math.nan
            else:
                assert new.best_position[0] == new.best_fitness
                final_error = max(old._best - old.optimum, 0.0)
            assert same_pairs(new.finalize(last), copy.deepcopy(old).finalize(last, final_error))


class TestGaussianStep:
    @settings(max_examples=150, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
               elements=st.floats(-20.0, 20.0)),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
    )
    def test_never_mutates_its_input(self, x, sigma, seed):
        lower, upper = np.full(x.shape[1], -5.0), np.full(x.shape[1], 5.0)
        before = x.copy()
        out = gaussian_step(x, sigma, np.random.default_rng(seed), lower, upper)
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


class TestJumps:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
            lambda shape: st.tuples(arrays(np.float64, shape, elements=coords),
                                    arrays(np.float64, shape, elements=coords))),
        st.booleans(),
    )
    def test_a_row_gives_the_same_bits_alone_as_in_a_batch(self, pair, shared):
        # bip's mean replacement books one row, its sweeps and the baselines a
        # batch; bbfwa's sparks all measure from one shared centre
        xs, old = pair
        old_x = old[0] if shared else old
        batch = _jumps(xs, old_x)
        alone = [_jumps(xs[i:i + 1], old_x if shared else old_x[i])[0]
                 for i in range(len(xs))]
        assert batch.tolist() == alone


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(rng, reference):
    """The two generators are at the same point of their stream."""
    return (rng.bit_generator.state == reference.bit_generator.state
            and rng.random() == reference.random())


# np.clip picks between a zero and a bound that is the other signed zero by
# the shape of its arguments (it keeps the zero where the bound broadcasts as a
# scalar, in dim 1 say), so no clamp matches it there.  No objective has a
# -0.0 bound, and a proposal is -0.0 only when its inputs are, so the draws
# below keep -0.0 out of bounds and means, as the runs do.


@st.composite
def boxes(draw, max_rows):
    """(rows, lower, upper, unit): a box of 1-12 dimensions and a (rows, n)
    array of fractions of its span."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, 12))
    lower = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3))) + 0.0
    span = draw(arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    unit = draw(arrays(np.float64, (m, n), elements=st.floats(0.0, 1.0)))
    return m, lower, lower + span, unit


class TestProposalDraws:
    """Each in-place proposal, bip's and the baselines', equals the numpy call
    it replaces, bit for bit, and leaves the generator where that call leaves
    it."""

    @settings(max_examples=200, deadline=None)
    @given(boxes(max_rows=20), st.floats(0.0, 1e4), st.integers(0, 2**32 - 1))
    def test_gaussian_step_is_a_clipped_rng_normal(self, box, sigma, seed):
        _, lower, upper, unit = box
        # the sweep's points, then one point alone; sigma up to ten times the
        # widest span, so some moves land outside the box
        x = lower + unit * (upper - lower)
        ours, numpys = twin_generators(seed)
        for point in (x, x[0]):
            expected = np.clip(numpys.normal(point, sigma), lower, upper)
            assert same_bits(gaussian_step(point, sigma, ours, lower, upper), expected)
        assert same_state(ours, numpys)

    @settings(max_examples=200, deadline=None)
    @given(boxes(max_rows=20), st.data(), st.integers(0, 2**32 - 1))
    def test_between_is_a_clipped_rng_normal(self, box, data, seed):
        m, lower, upper, unit = box
        a = lower + unit * (upper - lower)
        b = a[data.draw(st.permutations(range(m)))]
        # rows with sd = 0, and coordinates with the midpoint on a bound
        same = data.draw(arrays(bool, m))
        b[same] = a[same]
        on_bound = data.draw(arrays(np.int8, a.shape, elements=st.integers(-1, 1)))
        a = np.where(on_bound < 0, lower, np.where(on_bound > 0, upper, a))
        b = np.where(on_bound != 0, a, b)
        ours, numpys = twin_generators(seed)
        expected = np.clip(numpys.normal(0.5 * (a + b), np.abs(a - b)), lower, upper)
        assert same_bits(_between(ours, a, b, lower, upper), expected)
        # one point against the population: bbpso's global best comes second,
        # gbde's best first
        assert same_bits(_between(ours, a, b[0], lower, upper),
                         np.clip(numpys.normal(0.5 * (a + b[0]), np.abs(a - b[0])),
                                 lower, upper))
        assert same_bits(_between(ours, b[0], a, lower, upper),
                         np.clip(numpys.normal(0.5 * (b[0] + a), np.abs(b[0] - a)),
                                 lower, upper))
        assert same_state(ours, numpys)

    @settings(max_examples=200, deadline=None)
    @given(boxes(max_rows=300), st.data(), st.integers(0, 2**32 - 1))
    def test_sparks_are_a_shifted_rng_uniform(self, box, data, seed):
        m, lower, upper, unit = box
        center = lower + unit[0] * (upper - lower)
        span = upper - lower
        # the amplitude at its floor, at the span, or in between
        pick = data.draw(arrays(np.int8, len(span), elements=st.integers(0, 2)))
        amplitude = np.where(pick == 0, AMP_FLOOR,
                             np.where(pick == 1, span, span * unit[-1]))
        ours, numpys = twin_generators(seed)
        expected = center + numpys.uniform(-amplitude, amplitude, size=(m, len(center)))
        assert same_bits(_sparks(ours, center, amplitude, m), expected)
        assert same_state(ours, numpys)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 150), st.floats(-3.0, 4.0),
           st.one_of(st.just(0.0), st.floats(0.0, 3.0)), st.integers(0, 2**32 - 1))
    def test_crossover_rates_are_a_clipped_rng_normal(self, m, mean, std, seed):
        mean += 0.0
        ours, numpys = twin_generators(seed)
        expected = np.clip(numpys.normal(mean, std, m), 0.0, 1.0)
        assert same_bits(_clamped_cr(ours, m, mean, std), expected)
        assert same_state(ours, numpys)
