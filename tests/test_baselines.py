"""Tests for the three parameter-light reference optimizers."""

import math

import numpy as np
import pytest

from bareopt.baselines import (
    AMP_FLOOR,
    AMP_GROW,
    AMP_SHRINK,
    CR_MEAN,
    CR_STD,
    BbfwaConfig,
    BbfwaRun,
    BbpsoConfig,
    BbpsoRun,
    GbdeConfig,
    GbdeRun,
    _clamped_cr,
)
from bareopt.benchmarks import BudgetedObjective, ObjectiveSpec, get_objective
from bareopt.harness import ALGORITHMS, REGISTRY, build_config
from bareopt.records import ACCEPT_BETTER, INIT, REJECT, EventLog

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
        _impl=lambda x: np.full(len(x), value),
    )


class TestConfigs:
    def test_defaults_match_the_reference_settings(self):
        assert BbpsoConfig().np_ == 20
        assert BbfwaConfig().np_ == 300 and AMP_GROW == 1.2 and AMP_SHRINK == 0.9
        assert GbdeConfig().np_ == 100 and CR_MEAN == 0.5 and CR_STD == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            BbpsoConfig(np_=1)
        with pytest.raises(ValueError):
            BbfwaConfig(np_=0)
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
        obj = BudgetedObjective(get_objective("F7", 3), max_fes=10_000)
        events = EventLog()
        run = BbpsoRun(obj, BbpsoConfig(np_=6, seed=0), events=events)
        # force every personal best onto the global best: the sampling
        # Gaussian then has zero width everywhere
        run.pbest[:] = run.gbest
        run.pbest_f[:] = run.gbest_f
        f_before = run.gbest_f
        for _ in range(10):
            run.step()
        assert run.gbest_f == f_before
        assert np.all(events.batches[-1].position == run.gbest)

    def test_personal_best_updates_only_on_strict_improvement(self):
        obj = BudgetedObjective(constant_spec(2), max_fes=500)
        run = BbpsoRun(obj, BbpsoConfig(np_=5, seed=3))
        pbest_before = run.pbest.copy()
        for _ in range(5):
            run.step()
        # flat landscape: ties everywhere, personal bests must never move
        assert np.array_equal(run.pbest, pbest_before)

    def test_sphere_convergence(self):
        obj = BudgetedObjective(get_objective("F7", 10), max_fes=50_000)
        out = BbpsoRun(obj, BbpsoConfig(seed=0)).run()
        assert out.succeeded and out.final_error <= 1e-8

    def test_determinism(self):
        a = BbpsoRun(BudgetedObjective(get_objective("F2", 5), 4000), BbpsoConfig(seed=9)).run()
        b = BbpsoRun(BudgetedObjective(get_objective("F2", 5), 4000), BbpsoConfig(seed=9)).run()
        assert a.error_trace == b.error_trace and a.final_error == b.final_error


class TestBbfwa:
    def test_amplitude_shrinks_through_consecutive_failures(self):
        obj = BudgetedObjective(constant_spec(2), max_fes=10_000)
        run = BbfwaRun(obj, BbfwaConfig(np_=10, seed=0))
        run.amplitude[:] = 1.0
        expected = np.full(2, 1.0)
        for _ in range(6):
            run.step()
            expected = np.clip(expected * AMP_SHRINK, AMP_FLOOR, run.span)
            assert np.allclose(run.amplitude, expected, rtol=1e-12)

    def test_tie_counts_as_no_improvement(self):
        # sparks on a flat objective tie with the center; amplitude must shrink
        obj = BudgetedObjective(constant_spec(3), max_fes=1000)
        run = BbfwaRun(obj, BbfwaConfig(np_=4, seed=1))
        run.amplitude[:] = 0.5
        run.step()
        assert np.array_equal(run.amplitude, np.full(3, 0.5 * AMP_SHRINK))

    def test_amplitude_grows_on_improvement_and_is_capped(self):
        obj = BudgetedObjective(get_objective("F7", 2), max_fes=10_000)
        run = BbfwaRun(obj, BbfwaConfig(np_=50, seed=0))
        # the amplitude starts at the full span
        assert np.array_equal(run.amplitude, run.span)
        # improving from a uniform start is near-certain with 50 sparks;
        # growth is capped at the box span
        center_f = run.center_f
        run.step()
        assert run.center_f < center_f
        assert np.array_equal(run.amplitude, run.span)
        # a small amplitude grows by AMP_GROW
        run.amplitude[:] = 0.5
        center_f = run.center_f
        run.step()
        assert run.center_f < center_f
        assert np.array_equal(run.amplitude, np.full(2, 0.5 * AMP_GROW))

    def test_the_amplitude_starts_at_each_dimension_span(self):
        spec = ObjectiveSpec(name="box", dim=2, lower_bound=np.array([-1.0, 0.0]),
                             upper_bound=np.array([1.0, 10.0]), optimum_position=np.zeros(2),
                             optimum_value=0.0, _impl=lambda x: np.sum(x * x, axis=-1))
        run = BbfwaRun(BudgetedObjective(spec, 100), BbfwaConfig(np_=5, seed=0))
        assert np.array_equal(run.amplitude, [2.0, 10.0])

    def test_amplitude_floor(self):
        obj = BudgetedObjective(constant_spec(1), max_fes=100_000)
        run = BbfwaRun(obj, BbfwaConfig(np_=5, seed=2))
        run.amplitude[:] = 1e-12
        for _ in range(200):
            run.step()
        # 1e-12 * AMP_SHRINK ** 200 lies far below the floor
        assert np.all(run.amplitude == AMP_FLOOR)

    def test_sphere_at_double_budget(self):
        obj = BudgetedObjective(get_objective("F7", 10), max_fes=100_000)
        out = BbfwaRun(obj, BbfwaConfig(seed=0), success_threshold=1e-8).run()
        assert out.final_error < 1e-6

    def test_sparks_respect_the_box(self):
        events = EventLog()
        obj = BudgetedObjective(get_objective("F5", 3), max_fes=3000)
        run = BbfwaRun(obj, BbfwaConfig(np_=20, seed=4), events=events)
        run.run()
        held = np.concatenate([b.position for b in events.batches
                               if b.position is not None])
        assert np.all(held >= obj.spec.lower_bound)
        assert np.all(held <= obj.spec.upper_bound)


class TestGbde:
    def test_converged_population_is_a_fixed_point(self):
        obj = BudgetedObjective(get_objective("F7", 3), max_fes=10_000)
        run = GbdeRun(obj, GbdeConfig(np_=5, seed=0))
        run.positions[:] = 0.25
        run.fitness[:] = BudgetedObjective(obj.spec, 1).evaluate_many(np.full((1, 3), 0.25))
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
        obj = BudgetedObjective(get_objective("F7", 10), max_fes=50_000)
        out = GbdeRun(obj, GbdeConfig(seed=0)).run()
        assert out.succeeded and out.final_error <= 1e-8

    def test_determinism(self):
        a = GbdeRun(BudgetedObjective(get_objective("F3", 6), 6000), GbdeConfig(seed=2)).run()
        b = GbdeRun(BudgetedObjective(get_objective("F3", 6), 6000), GbdeConfig(seed=2)).run()
        assert a.error_trace == b.error_trace and a.final_error == b.final_error


class TestSharedProtocol:
    def test_event_vocabulary_is_reduced(self):
        for runner, cfg in (
            (BbpsoRun, BbpsoConfig(np_=5, seed=0)),
            (BbfwaRun, BbfwaConfig(np_=5, seed=0)),
            (GbdeRun, GbdeConfig(np_=5, seed=0)),
        ):
            events = EventLog()
            obj = BudgetedObjective(get_objective("F7", 2), max_fes=300)
            runner(obj, cfg, events=events).run()
            kinds = set(events.column("kind").tolist())
            assert kinds <= {INIT, ACCEPT_BETTER, REJECT}
            assert INIT in kinds
            for b in events.batches:
                assert math.isnan(b.gamma) and math.isnan(b.sigma)

    def test_budget_is_never_exceeded(self):
        for runner, cfg in (
            (BbpsoRun, BbpsoConfig(np_=7, seed=1)),
            (BbfwaRun, BbfwaConfig(np_=7, seed=1)),
            (GbdeRun, GbdeConfig(np_=7, seed=1)),
        ):
            obj = BudgetedObjective(get_objective("F7", 2), max_fes=103)
            out = runner(obj, cfg, success_threshold=0.0).run()
            assert out.evals_used == 103

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_budget_outcome(self, algorithm):
        obj = BudgetedObjective(get_objective("F7", 2), 0)
        run = REGISTRY[algorithm](obj, build_config(algorithm, 0, None))
        # the run is over before its first step, which evaluates nothing
        assert run.finished and not run.step() and obj.evals_used == 0
        out = run.run()
        assert math.isnan(out.final_error)
        assert out.evals_used == 0 and not out.succeeded
        assert out.error_trace == []
