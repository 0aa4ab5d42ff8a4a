"""Tests for the multi-scale tunneling sampler and its building blocks."""

import math
import warnings

import numpy as np
import pytest

from bareopt.benchmarks import (
    BudgetExhausted,
    BudgetedObjective,
    ObjectiveSpec,
    get_objective,
    make_benchmark,
)
from bareopt import bip
from bareopt.bip import (
    BipConfig,
    BipRun,
    accept_moves,
    anneal_gamma,
    gaussian_step,
    ground_state_reached,
    tunneling_probability,
)
from bareopt.diagnostics import record_run
from bareopt.harness import run_single
from bareopt.records import (
    ACCEPT_BETTER,
    ACCEPT_TUNNEL,
    INIT,
    MEAN_REPLACE,
    REJECT,
    SCALE_HALVE,
    EventLog,
)


class TestTunnelingProbability:
    def test_closed_form_point(self):
        # exp(-1 * sqrt(4) / 2) = exp(-1)
        assert tunneling_probability(4.0, 1.0, 2.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_zero_gap_is_certain(self):
        assert tunneling_probability(0.0, 3.0, 0.5, 1.0) == 1.0

    def test_amplitude_scales_and_clamps(self):
        assert tunneling_probability(0.0, 1.0, 1.0, 0.25) == 0.25
        assert tunneling_probability(1e-12, 1e-12, 5.0, 7.0) == 1.0

    def test_extreme_gap_underflows_to_zero(self):
        assert tunneling_probability(1e6, 1e6, 1e-300, 1.0) == 0.0

    def test_monotone_over_random_triples(self):
        rng = np.random.default_rng(5)
        n = 10_000
        df = rng.uniform(0.0, 50.0, n)
        dx = rng.uniform(0.0, 20.0, n)
        g = rng.uniform(1e-3, 10.0, n)
        base = tunneling_probability(df, dx, g)
        assert np.all(tunneling_probability(df + 1.0, dx, g) <= base)
        assert np.all(tunneling_probability(df, dx + 1.0, g) <= base)
        assert np.all(tunneling_probability(df, dx, g + 1.0) >= base)

    @pytest.mark.parametrize("delta_x, amplitude_a, expected", [(0.0, 0.5, 0.5), (2.0, 0.0, 0.0)],
                             ids=["zero-jump", "zero-amplitude"])
    def test_the_least_jump_and_amplitude_are_allowed(self, delta_x, amplitude_a, expected):
        assert tunneling_probability(1.0, delta_x, 1.0, amplitude_a) == expected


class TestAnnealGamma:
    def test_one_step(self):
        assert anneal_gamma(10.0, 1) == pytest.approx(10.0 * math.exp(-1.0))

    def test_zero_counter_is_identity(self):
        assert anneal_gamma(3.5, 0) == 3.5


class TestGaussianStep:
    def test_moments(self):
        rng = np.random.default_rng(3)
        x = np.full(2, 1.5)
        steps = np.stack([gaussian_step(x, 0.5, rng) for _ in range(10_000)])
        assert np.all(np.abs(steps.mean(axis=0) - 1.5) < 0.02)
        assert np.all(np.abs(steps.std(axis=0) - 0.5) < 0.02)

    def test_zero_sigma_stays_put(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, -2.0])
        assert np.array_equal(gaussian_step(x, 0.0, rng), x)

    def test_batch_shape(self):
        rng = np.random.default_rng(0)
        out = gaussian_step(np.zeros((7, 3)), 1.0, rng)
        assert out.shape == (7, 3)

    @pytest.mark.parametrize("missing", ["lower", "upper"])
    def test_a_missing_bound_leaves_the_step_as_drawn(self, missing):
        bounds = {"lower": np.full(2, -1.0), "upper": np.full(2, 1.0), missing: None}
        x = np.zeros((200, 2))
        xs = gaussian_step(x, 50.0, np.random.default_rng(1), **bounds)
        assert np.array_equal(xs, np.random.default_rng(1).normal(x, 50.0))
        assert np.any(np.abs(xs) > 1.0)

    def test_clamp_lands_on_the_boundary(self):
        rng = np.random.default_rng(1)
        xs = gaussian_step(np.zeros((200, 2)), 50.0, rng, np.full(2, -1.0), np.full(2, 1.0))
        assert np.all(np.abs(xs) <= 1.0)
        assert np.any(np.abs(xs) == 1.0)


class TestAcceptSample:
    def test_improvement_always_taken(self):
        rng = np.random.default_rng(0)
        accept, probs = accept_moves(np.array([-1.0]), np.array([math.sqrt(2.0)]),
                                     1.0, 1.0, rng)
        assert accept.tolist() == [True] and probs is None

    def test_tie_counts_as_acceptance(self):
        rng = np.random.default_rng(0)
        accept, probs = accept_moves(np.array([0.0]), np.array([math.sqrt(2.0)]),
                                     1.0, 1.0, rng)
        assert accept.tolist() == [True] and probs is None

    def test_zero_amplitude_rejects_without_drawing(self):
        rng = np.random.default_rng(42)
        accept, probs = accept_moves(np.array([1.0]), np.array([math.sqrt(2.0)]),
                                     1.0, 0.0, rng)
        assert accept.tolist() == [False] and probs is None
        # the generator must not have been consulted
        assert rng.random() == np.random.default_rng(42).random()

    def test_a_denormal_gamma_gives_zero_without_a_warning(self):
        # dx * sqrt(df) / gamma overflows to inf, and exp(-inf) is exactly 0
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accept, probs = accept_moves(np.array([1e6, 1e300]), np.array([1e6, 1e10]),
                                         5e-324, 1.0, rng)
        assert probs.tolist() == [0.0, 0.0] and accept.tolist() == [False, False]

    def test_worse_uses_the_tunneling_law(self):
        n = 20_000
        expected = math.exp(-1.0)
        rng = np.random.default_rng(8)
        # delta_x=1, delta_f=4, gamma=2
        accept, probs = accept_moves(np.full(n, 4.0), np.ones(n), 2.0, 1.0, rng)
        assert np.all(np.abs(probs - expected) <= 1e-15)
        taken = np.count_nonzero(accept)
        sd = math.sqrt(expected * (1 - expected) / n)
        assert abs(taken / n - expected) < 4 * sd


class TestAcceptanceLawOnRealSweeps:
    @pytest.mark.parametrize("function, dim, max_fes, overrides", [
        ("F7", 10, 20_000, None),
        ("F1", 10, 20_000, None),
        ("double_well", 2, 2_000, {"k": 5}),
    ])
    def test_tunnels_taken_match_their_probabilities(self, function, dim, max_fes,
                                                     overrides):
        # each tunnel decision (accept-tunnel or reject row) is one draw against
        # its logged probability p, so over seeds 0-19 the accepted count is
        # about normal with mean sum(p) and variance sum(p(1 - p))
        accepted = expected = variance = 0.0
        for seed in range(20):
            _, log = record_run("bip", function, dim, max_fes=max_fes, seed=seed,
                                overrides=overrides)
            kind = log.events.column("kind")
            p = log.events.column("probability")[(kind == ACCEPT_TUNNEL) | (kind == REJECT)]
            accepted += np.count_nonzero(kind == ACCEPT_TUNNEL)
            expected += p.sum()
            variance += (p * (1.0 - p)).sum()
        z = (accepted - expected) / math.sqrt(variance)
        assert abs(z) < 3, f"z = {z:.2f}"


    def test_every_tunnel_decision_goes_through_the_kernel(self, monkeypatch):
        # a sweep looks tunneling_probability up by its module name, so a
        # wrapper there (as a profiler's span would be) sees each worsening
        # move at gamma > 0 once and returns the probability that is logged
        returned = []
        kernel = bip.tunneling_probability

        def counted(*args):
            probs = kernel(*args)
            returned.append(probs.copy())
            return probs

        monkeypatch.setattr(bip, "tunneling_probability", counted)
        _, log = record_run("bip", "F7", 10, max_fes=2000, seed=0)
        logged = np.concatenate([
            b.probability[(b.kind == ACCEPT_TUNNEL) | (b.kind == REJECT)]
            for b in log.events.batches if b.gamma > 0])
        assert returned, "no sweep called the kernel by its module name"
        seen = np.concatenate(returned)
        assert seen.size == logged.size > 0
        assert seen.tobytes() == logged.tobytes()


class TestGroundState:
    def test_spread_just_above_and_below(self):
        positions = np.array([[0.0], [10.0]])  # sample std 7.0711
        assert not ground_state_reached(positions, 7.07)
        assert ground_state_reached(positions, 7.08)

    def test_max_over_dimensions(self):
        # tight in x, wide in y: the wide dimension decides
        positions = np.array([[0.0, 0.0], [0.01, 5.0], [0.02, -5.0]])
        assert not ground_state_reached(positions, 1.0)
        assert ground_state_reached(positions[:, :1], 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 10])
    def test_fires_as_often_as_the_chi2_model_says(self, dim):
        # one axis of k = 15 draws from N(0, 1) has a sample std below 1 with
        # probability P(chi2_14 < 14) = scipy.stats.chi2.cdf(14, 14); the max
        # rule needs every axis below at once, so it fires with that to the dim
        p = 0.5502889 ** dim
        rng, n = np.random.default_rng(dim), 20_000
        fired = sum(ground_state_reached(rng.standard_normal((15, dim)), 1.0)
                    for _ in range(n))
        z = (fired - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) < 4, f"z = {z:.2f}"


def collapse(xs, fs, max_fes=10):
    """A bip run on the 1-D sphere whose population is set to ``xs``/``fs``
    and then put through one scale transition."""
    run = BipRun(BudgetedObjective(make_benchmark(7, 1), max_fes), BipConfig(k=len(xs)))
    run.positions = np.array(xs, dtype=float)[:, None]
    run.fitness = np.array(fs, dtype=float)
    used, span = run.objective.evals_used, run.sigma_s
    run._transition_scale()
    assert run.objective.evals_used == used + 1
    assert run.sigma_s == span / 2
    return run


class TestMeanReplaceWorst:
    def test_two_particle_oracle(self):
        run = collapse([0.0, 2.0], [0.0, 4.0])
        assert np.array_equal(run.positions[1], [1.0]) and run.fitness[1] == 1.0
        assert np.array_equal(run.positions[0], [0.0]) and run.fitness[0] == 0.0

    def test_three_particle_oracle(self):
        run = collapse([0.0, 0.0, 3.0], [0.0, 0.0, 9.0])
        assert np.array_equal(run.positions[2], [1.0]) and run.fitness[2] == 1.0

    def test_tie_replaces_the_lowest_index(self):
        run = collapse([-2.0, 2.0], [4.0, 4.0])
        assert np.array_equal(run.positions[0], [0.0]) and run.fitness[0] == 0.0
        assert np.array_equal(run.positions[1], [2.0])

    def test_consumes_budget(self):
        # the initial population spends the whole budget of 2
        with pytest.raises(BudgetExhausted):
            collapse([0.0, 2.0], [0.0, 4.0], max_fes=2)


class TestBipConfig:
    def test_defaults(self):
        cfg = BipConfig()
        assert cfg.k == 15 and cfg.amplitude_a == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BipConfig(k=1)
        with pytest.raises(ValueError):
            BipConfig(amplitude_a=-0.5)


class TestBipRun:
    def budget(self, fid=7, dim=4, max_fes=3000):
        return BudgetedObjective(make_benchmark(fid, dim), max_fes)

    def test_same_seed_gives_bitwise_identical_traces(self):
        a = BipRun(self.budget(), BipConfig(seed=12), success_threshold=0.0).run()
        b = BipRun(self.budget(), BipConfig(seed=12), success_threshold=0.0).run()
        assert a.error_trace == b.error_trace
        assert a.final_error == b.final_error
        assert np.array_equal(a.best_position, b.best_position)

    def test_different_seeds_differ(self):
        a = BipRun(self.budget(), BipConfig(seed=1), success_threshold=0.0).run()
        b = BipRun(self.budget(), BipConfig(seed=2), success_threshold=0.0).run()
        assert a.error_trace != b.error_trace

    def test_best_so_far_is_monotone(self):
        out = BipRun(self.budget(), BipConfig(seed=3), success_threshold=0.0).run()
        errors = [e for _, e in out.error_trace]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert out.error_trace[-1][1] == out.final_error

    @pytest.mark.filterwarnings("error")
    def test_equal_infinite_values_are_equal_moves(self):
        # +inf everywhere: every sweep move and every mean replacement has a
        # fitness gap of 0, not inf - inf = NaN, so each move is taken
        spec = ObjectiveSpec(
            name="infinite", dim=2, lower_bound=np.full(2, -1.0),
            upper_bound=np.full(2, 1.0), optimum_position=np.zeros(2),
            optimum_value=0.0, _impl=lambda x: np.full(x.shape[:-1], np.inf),
        )
        events = EventLog()
        BipRun(BudgetedObjective(spec, 1000), BipConfig(k=5, seed=0),
               events=events).run()
        kind = events.column("kind")
        moves = (kind != INIT) & (kind != SCALE_HALVE)
        assert set(kind[moves].tolist()) == {ACCEPT_BETTER, MEAN_REPLACE}
        assert np.all(events.column("delta_f")[moves] == 0.0)

    def test_population_size_is_constant(self):
        run = BipRun(self.budget(max_fes=2000), BipConfig(seed=4), success_threshold=0.0)
        while run.step():
            assert len(run.positions) == run.config.k

    def test_sigma_schedule_is_exact(self):
        events = EventLog()
        obj = self.budget(max_fes=5000)
        run = BipRun(obj, BipConfig(seed=5), success_threshold=0.0,
                     events=events)
        run.run()
        halves = [b.sigma for b in events.batches if b.kind[0] == SCALE_HALVE]
        assert len(halves) >= 3, "expected several scale transitions"
        span = obj.spec.max_span
        for j, sigma in enumerate(halves, start=1):
            assert sigma == span / 2.0 ** j  # exact, no drift

    def test_scale_halves_and_gamma_anneals_by_the_sweep_count(self):
        run = BipRun(self.budget(max_fes=3000), BipConfig(seed=7), success_threshold=0.0)
        while run.step():
            assert run.sigma_s == run.span / 2.0 ** run.scale_index
            assert run.gamma == run.sigma_s * math.exp(-run.ac)
        assert run.scale_index >= 3, "expected several scale transitions"

    def test_gamma_decays_within_a_scale_and_resets_upward(self):
        events = EventLog()
        run = BipRun(self.budget(max_fes=5000),
                     BipConfig(seed=6), success_threshold=0.0,
                     events=events)
        run.run()
        # walk sweeps (one batch each, sharing one gamma): gamma decays sweep
        # to sweep
        sweep_gammas = []
        for b in events.batches:
            if b.kind[0] == SCALE_HALVE:
                sweep_gammas.append(("halve", b.gamma))
            elif b.kind[0] not in (INIT, MEAN_REPLACE):
                sweep_gammas.append(("sweep", b.gamma))
        prev = None
        jumps = 0
        for kind, g in sweep_gammas:
            if kind == "halve":
                if prev is not None and g > prev:
                    jumps += 1
                prev = g
                continue
            if prev is not None:
                assert g <= prev + 1e-18
            prev = g
        assert jumps >= 1, "gamma should reset upward at some scale transition"

    def test_zero_amplitude_is_pure_descent(self):
        events = EventLog()
        run = BipRun(self.budget(max_fes=2000),
                     BipConfig(seed=7, amplitude_a=0.0), success_threshold=0.0,
                     events=events)
        run.run()
        kind = events.column("kind")
        assert ACCEPT_TUNNEL not in kind
        # every accepted move is an actual improvement for its particle
        assert np.all(events.column("delta_f")[kind == ACCEPT_BETTER] <= 0.0)

    def test_accepted_worse_probability_is_recomputable(self):
        events = EventLog()
        run = BipRun(self.budget(max_fes=2000),
                     BipConfig(seed=8), success_threshold=0.0,
                     events=events)
        run.run()
        tunnels = events.column("kind") == ACCEPT_TUNNEL
        assert tunnels.any(), "expected some tunneling acceptances"
        gamma = np.concatenate([np.full(len(b), b.gamma) for b in events.batches])
        delta_f, delta_x = events.column("delta_f"), events.column("delta_x")
        assert events.column("probability")[tunnels] == pytest.approx(
            tunneling_probability(delta_f[tunnels], delta_x[tunnels], gamma[tunnels], 1.0),
            rel=1e-12,
        )

    def test_positions_stay_inside_the_box(self):
        events = EventLog()
        obj = self.budget(fid=2, dim=3, max_fes=1500)
        BipRun(obj, BipConfig(seed=9), success_threshold=0.0, events=events).run()
        held = np.concatenate([b.position for b in events.batches if b.position is not None])
        assert np.all(held >= obj.spec.lower_bound - 1e-12)
        assert np.all(held <= obj.spec.upper_bound + 1e-12)

    def test_zero_budget_outcome(self):
        out = BipRun(self.budget(max_fes=0), BipConfig(seed=0)).run()
        assert math.isnan(out.final_error)
        assert out.evals_used == 0 and not out.succeeded
        assert out.error_trace == []

    def test_a_budget_ending_inside_a_sweep_skips_the_collapse_check(self, monkeypatch):
        # the evaluations spent at each check; a sweep that takes no move
        # skips its check, so not every full sweep is seen here
        calls = []

        def never_collapsed(positions, sigma_s):
            calls.append(obj.evals_used)
            return False

        monkeypatch.setattr(bip, "ground_state_reached", never_collapsed)
        k = 15
        # the initial population, three full sweeps, then 7 of the next 15
        obj = self.budget(max_fes=k + 3 * k + 7)
        out = BipRun(obj, BipConfig(seed=0, k=k), success_threshold=0.0).run()
        assert out.evals_used == k + 3 * k + 7
        assert calls
        # every check follows a full sweep, none the partial last one
        assert all(e in (2 * k, 3 * k, 4 * k) for e in calls)

    def test_partial_init_budget(self):
        out = BipRun(self.budget(max_fes=5), BipConfig(seed=0, k=15)).run()
        assert out.evals_used == 5 and not math.isnan(out.final_error)

    def test_init_position_tiles_the_population(self):
        events = EventLog()
        obj = BudgetedObjective(get_objective("double_well", 2), max_fes=50)
        run = BipRun(obj, BipConfig(seed=1, k=5, init_position=(2.0, 2.0)),
                     success_threshold=0.0, events=events)
        run.run()
        inits = np.concatenate([b.position[b.kind == INIT] for b in events.batches
                                if b.position is not None])
        assert len(inits) == 5
        for x in inits:
            assert np.array_equal(x, [2.0, 2.0])

    def test_init_position_outside_box_rejected(self):
        obj = self.budget(dim=2)
        with pytest.raises(ValueError):
            BipRun(obj, BipConfig(seed=0, init_position=(1e9, 0.0)))
        with pytest.raises(ValueError):
            BipRun(obj, BipConfig(seed=0, init_position=(0.0,)))
        # NaN compares false both ways, so only a check that asks for the
        # box (not for leaving it) rejects it
        with pytest.raises(ValueError, match="outside the box"):
            BipRun(obj, BipConfig(seed=0, init_position=(math.nan, 0.0)))

    @pytest.mark.parametrize("function, seed, overrides", [
        ("F4", 3, {"k": 2}),
        ("double_well", 5, {"k": 2}),
    ])
    def test_scale_past_the_floats_ends_the_run(self, function, seed, overrides):
        # two particles collapse nearly every sweep, so the scale's halvings
        # pass 2.0 ** 1024 within the budget
        max_fes = 5000
        out = run_single("bip", function, 1, max_fes=max_fes, seed=seed,
                         success_threshold=0.0, overrides=overrides)
        # only the overflow ends a run early with an error above 0 (a
        # threshold of 0 stops only at the optimum itself)
        assert out.evals_used < max_fes and out.final_error > 0
        errors = [e for _, e in out.error_trace]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert math.isfinite(out.final_error)

    def test_success_threshold_stops_early(self):
        obj = self.budget(dim=10, max_fes=50_000)
        out = BipRun(obj, BipConfig(seed=0), success_threshold=1e-8).run()
        assert out.succeeded and out.final_error <= 1e-8
        assert out.evals_used < 50_000

    def test_sphere_reaches_deep_accuracy(self):
        # desk-scale headline: full budget drives the error below 1e-10
        obj = BudgetedObjective(make_benchmark(7, 10), max_fes=50_000)
        out = BipRun(obj, BipConfig(seed=0), success_threshold=0.0).run()
        assert out.final_error < 1e-10

    def test_mean_replace_toggle_changes_the_run(self):
        a = BipRun(self.budget(max_fes=4000),
                   BipConfig(seed=11), success_threshold=0.0).run()
        b = BipRun(self.budget(max_fes=4000),
                   BipConfig(seed=11, mean_replace=False), success_threshold=0.0).run()
        assert a.error_trace != b.error_trace
