"""Tests for the three parameter-light reference optimizers."""

import math

import numpy as np
import pytest

from bareopt.baselines import (
    BbfwaConfig,
    BbfwaRun,
    BbpsoConfig,
    BbpsoRun,
    GbdeConfig,
    GbdeRun,
    _clamped_cr,
    run_bbfwa,
    run_bbpso,
    run_gbde,
)
from bareopt.benchmarks import BudgetedObjective, ObjectiveSpec, make_benchmark

import bareopt.benchmarks as benchmarks


def constant_spec(dim, value=5.0, low=-1.0, high=1.0):
    """A flat objective: nothing ever strictly improves.

    The declared optimum sits below the returned constant so a run on it
    never counts as a success and keeps stepping.
    """
    return ObjectiveSpec(
        name="flat",
        dim=dim,
        lower_bound=np.full(dim, low),
        upper_bound=np.full(dim, high),
        optimum_position=np.zeros(dim),
        optimum_value=0.0,
        _impl=lambda x: np.full(x.shape[:-1], value) if x.ndim > 1 else value,
    )


class TestConfigs:
    def test_defaults_match_the_reference_settings(self):
        assert BbpsoConfig().np_ == 20
        assert BbfwaConfig().np_ == 300
        cfg = GbdeConfig()
        assert cfg.np_ == 100 and cfg.cr_mean == 0.5 and cfg.cr_std == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            BbpsoConfig(np_=1)
        with pytest.raises(ValueError):
            BbfwaConfig(amp_shrink=1.1)
        with pytest.raises(ValueError):
            BbfwaConfig(amp_grow=0.9)
        with pytest.raises(ValueError):
            GbdeConfig(np_=3)


class TestClampedCr:
    def test_range_and_center(self):
        rng = np.random.default_rng(0)
        cr = _clamped_cr(rng, 20_000, 0.5, 0.1)
        assert np.all(cr >= 0.0) and np.all(cr <= 1.0)
        assert abs(float(cr.mean()) - 0.5) < 0.01

    def test_extreme_mean_saturates(self):
        rng = np.random.default_rng(0)
        cr = _clamped_cr(rng, 1000, 5.0, 0.1)
        assert np.all(cr == 1.0)


class TestBbpso:
    def test_collapsed_swarm_is_stationary(self):
        obj = BudgetedObjective(make_benchmark(7, 3), max_fes=10_000)
        run = BbpsoRun(obj, BbpsoConfig(np_=6, seed=0))
        # force every personal best onto the global best: the sampling
        # Gaussian then has zero width everywhere
        run.pbest[:] = run.gbest
        run.pbest_f[:] = run.gbest_f
        f_before = run.gbest_f
        for _ in range(10):
            run.step()
        assert run.gbest_f == f_before
        assert np.all(run.positions == run.gbest)

    def test_personal_best_updates_only_on_strict_improvement(self):
        obj = BudgetedObjective(constant_spec(2), max_fes=500)
        run = BbpsoRun(obj, BbpsoConfig(np_=5, seed=3))
        pbest_before = run.pbest.copy()
        for _ in range(5):
            run.step()
        # flat landscape: ties everywhere, personal bests must never move
        assert np.array_equal(run.pbest, pbest_before)

    def test_sphere_convergence(self):
        obj = BudgetedObjective(make_benchmark(7, 10), max_fes=50_000)
        out = run_bbpso(obj, BbpsoConfig(seed=0))
        assert out.succeeded and out.final_error <= 1e-8

    def test_determinism(self):
        a = run_bbpso(BudgetedObjective(make_benchmark(2, 5), 4000), BbpsoConfig(seed=9))
        b = run_bbpso(BudgetedObjective(make_benchmark(2, 5), 4000), BbpsoConfig(seed=9))
        assert a.error_trace == b.error_trace and a.final_error == b.final_error


class TestBbfwa:
    def test_amplitude_shrinks_through_consecutive_failures(self):
        obj = BudgetedObjective(constant_spec(2), max_fes=10_000)
        cfg = BbfwaConfig(np_=10, amp_init=1.0, seed=0)
        run = BbfwaRun(obj, cfg)
        expected = np.full(2, 1.0)
        for _ in range(6):
            run.step()
            expected = np.clip(expected * cfg.amp_shrink, cfg.amp_floor, run.span)
            assert np.allclose(run.amplitude, expected, rtol=1e-12)

    def test_tie_counts_as_no_improvement(self):
        # sparks on a flat objective tie with the center; amplitude must shrink
        obj = BudgetedObjective(constant_spec(3), max_fes=1000)
        run = BbfwaRun(obj, BbfwaConfig(np_=4, amp_init=0.5, seed=1))
        run.step()
        assert np.all(run.amplitude < 0.5)

    def test_amplitude_grows_on_improvement_and_is_capped(self):
        obj = BudgetedObjective(make_benchmark(7, 2), max_fes=10_000)
        cfg = BbfwaConfig(np_=50, seed=0)
        run = BbfwaRun(obj, cfg)  # amp_init None -> full span
        span = run.span.copy()
        run.step()
        # improving from a uniform start is near-certain with 50 sparks;
        # growth is capped at the box span
        assert run.center_f < math.inf
        assert np.all(run.amplitude <= span + 1e-12)

    def test_amplitude_floor(self):
        obj = BudgetedObjective(constant_spec(1), max_fes=100_000)
        cfg = BbfwaConfig(np_=5, amp_init=1e-12, seed=2)
        run = BbfwaRun(obj, cfg)
        for _ in range(200):
            run.step()
        assert np.all(run.amplitude >= cfg.amp_floor)

    def test_sphere_at_double_budget(self):
        obj = BudgetedObjective(make_benchmark(7, 10), max_fes=100_000)
        out = run_bbfwa(obj, BbfwaConfig(seed=0, success_threshold=1e-8))
        assert out.final_error < 1e-6

    def test_sparks_respect_the_box(self):
        events = []
        obj = BudgetedObjective(make_benchmark(5, 3), max_fes=3000)
        run = BbfwaRun(obj, BbfwaConfig(np_=20, seed=4), callback=events.append)
        run.run()
        for e in events:
            if e.position is not None:
                assert np.all(e.position >= obj.spec.lower_bound)
                assert np.all(e.position <= obj.spec.upper_bound)


class TestGbde:
    def test_converged_population_is_a_fixed_point(self):
        obj = BudgetedObjective(make_benchmark(7, 3), max_fes=10_000)
        run = GbdeRun(obj, GbdeConfig(np_=5, seed=0))
        run.positions[:] = 0.25
        run.fitness[:] = obj.spec.evaluate([0.25, 0.25, 0.25])
        run.step()
        # best == parent everywhere: mutation has zero spread, crossover
        # recombines identical vectors, selection keeps the tie
        assert np.all(run.positions == 0.25)

    def test_selection_accepts_ties(self):
        obj = BudgetedObjective(constant_spec(2), max_fes=2000)
        run = GbdeRun(obj, GbdeConfig(np_=6, seed=5))
        before = run.positions.copy()
        run.step()
        # flat landscape: every trial ties, and the tie goes to the trial
        assert not np.array_equal(run.positions, before)

    def test_sphere_convergence(self):
        obj = BudgetedObjective(make_benchmark(7, 10), max_fes=50_000)
        out = run_gbde(obj, GbdeConfig(seed=0))
        assert out.succeeded and out.final_error <= 1e-8

    def test_determinism(self):
        a = run_gbde(BudgetedObjective(make_benchmark(3, 6), 6000), GbdeConfig(seed=2))
        b = run_gbde(BudgetedObjective(make_benchmark(3, 6), 6000), GbdeConfig(seed=2))
        assert a.error_trace == b.error_trace and a.final_error == b.final_error


class TestSharedProtocol:
    def test_event_vocabulary_is_reduced(self):
        for runner, cfg in (
            (run_bbpso, BbpsoConfig(np_=5, seed=0)),
            (run_bbfwa, BbfwaConfig(np_=5, seed=0)),
            (run_gbde, GbdeConfig(np_=5, seed=0)),
        ):
            events = []
            obj = BudgetedObjective(make_benchmark(7, 2), max_fes=300)
            runner(obj, cfg, callback=events.append)
            kinds = {e.kind for e in events}
            assert kinds <= {"init", "accept-better", "reject"}
            assert "init" in kinds
            for e in events:
                assert math.isnan(e.gamma) and math.isnan(e.sigma)

    def test_budget_is_never_exceeded(self):
        for runner, cfg in (
            (run_bbpso, BbpsoConfig(np_=7, seed=1, success_threshold=0.0)),
            (run_bbfwa, BbfwaConfig(np_=7, seed=1, success_threshold=0.0)),
            (run_gbde, GbdeConfig(np_=7, seed=1, success_threshold=0.0)),
        ):
            obj = BudgetedObjective(make_benchmark(7, 2), max_fes=103)
            out = runner(obj, cfg)
            assert out.evals_used == 103

    def test_zero_budget_outcome(self):
        out = run_gbde(BudgetedObjective(make_benchmark(7, 2), 0), GbdeConfig(seed=0))
        assert math.isnan(out.final_error) and out.evals_used == 0
