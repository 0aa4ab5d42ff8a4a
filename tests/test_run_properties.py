"""Run-level invariants of all four algorithms, checked through run_single.

Every run, whatever the algorithm, bounds policy, dimension or budget
(budgets below the population size included), keeps to its budget, keeps
its best position in the box, repeats itself exactly for the same seed, and
reports a best-so-far curve that never rises and ends at the last
evaluation.  A constant objective, where every move ties, is held to the
same invariants, and so is one that is NaN or +inf over half the box, where
every run must still report a best point and a curve without NaN, and warn
nothing; the NaN half gives the +inf half's outcome exactly.  An outcome
taken mid-run is a snapshot the rest of the run leaves alone.  Recording events leaves the outcome as it is, and a recorded log
yields the same rows by iteration and by index, one per evaluation in order.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareopt.benchmarks import (
    BudgetedObjective,
    ObjectiveSpec,
    get_objective,
    registry_names,
)
from bareopt.bip import BOUNDS_POLICIES, BipConfig, BipRun
from bareopt.diagnostics import record_run
from bareopt.harness import REGISTRY, run_single

# the smallest population each algorithm accepts
MINIMAL = {
    **{("bip", p): {"k": 2, "bounds_policy": p} for p in BOUNDS_POLICIES},
    ("bbpso", None): {"np_": 2},
    ("bbfwa", None): {"np_": 1},
    ("gbde", None): {"np_": 4},
}


def same_outcome(a, b):
    return (a.evals_used == b.evals_used
            and a.final_error.hex() == b.final_error.hex()
            and a.error_trace == b.error_trace
            and a.succeeded == b.succeeded
            and a.best_fitness.hex() == b.best_fitness.hex()
            and ((a.best_position is None and b.best_position is None)
                 or np.array_equal(a.best_position, b.best_position)))


def check_invariants(out, spec, max_fes, rerun):
    assert out.evals_used <= max_fes
    if out.best_position is not None:
        assert np.all(out.best_position >= spec.lower_bound)
        assert np.all(out.best_position <= spec.upper_bound)
    assert same_outcome(out, rerun())
    errors = [e for _, e in out.error_trace]
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert out.error_trace[-1] == (out.evals_used, out.final_error)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(sorted(MINIMAL, key=str)),
    function=st.sampled_from(registry_names()),
    dim=st.integers(1, 3),
    max_fes=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    success_threshold=st.sampled_from([0.0, 1e-8]),
)
def test_run_invariants(variant, function, dim, max_fes, seed, success_threshold):
    algorithm, _ = variant

    def run():
        return run_single(algorithm, function, dim, max_fes=max_fes, seed=seed,
                          success_threshold=success_threshold,
                          overrides=MINIMAL[variant])

    check_invariants(run(), get_objective(function, dim), max_fes, run)


def constant(dim):
    return ObjectiveSpec(
        name="constant", dim=dim, lower_bound=np.full(dim, -2.0),
        upper_bound=np.full(dim, 3.0), optimum_position=np.zeros(dim),
        optimum_value=0.0, _impl=lambda x: np.ones(x.shape[:-1]),
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("max_fes", [1, 7, 300])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("variant", [
    *((name, None) for name in REGISTRY if name != "bip"),
    *(("bip", p) for p in BOUNDS_POLICIES),
], ids=lambda v: "-".join(filter(None, v)))
def test_a_constant_objective_runs_out_the_budget(variant, dim, max_fes):
    algorithm, policy = variant
    spec = constant(dim)

    def start():
        run_cls = REGISTRY[algorithm]
        config = (BipConfig(bounds_policy=policy, seed=3) if run_cls is BipRun
                  else run_cls.config_class(seed=3))
        return run_cls(BudgetedObjective(spec, max_fes), config)

    started = start()
    out = started.run()
    # an error of 1 never reaches the threshold, so every evaluation is spent
    assert out.evals_used == max_fes
    # a finished run stays finished
    assert started.step() is False
    assert started.objective.evals_used == max_fes
    check_invariants(out, spec, max_fes, lambda: start().run())


def half_sphere(fill):
    """A sphere on [-5, 5]^3 that is ``fill`` (NaN or +inf) wherever x0 > 0."""
    def impl(x):
        return np.where(x[..., 0] > 0, fill, np.sum(x * x, axis=-1))

    return ObjectiveSpec(
        name=f"half-{fill} sphere", dim=3, lower_bound=np.full(3, -5.0),
        upper_bound=np.full(3, 5.0), optimum_position=np.zeros(3),
        optimum_value=0.0, _impl=impl,
    )


@pytest.mark.parametrize("variant", [
    *((name, None) for name in REGISTRY if name != "bip"),
    *(("bip", p) for p in BOUNDS_POLICIES),
], ids=lambda v: "-".join(filter(None, v)))
def test_nan_evaluations_leave_a_best_point_and_a_curve(variant):
    """NaN and +inf alike: a best point, a finite error, no NaN in the curve,
    and no runtime warning (inf - inf in a fitness gap would raise one).  The
    metered objective reports NaN as +inf, so every decision ranks a NaN as
    worst and both runs give the same outcome."""
    algorithm, policy = variant
    outcomes = []
    for fill in (np.nan, np.inf):
        spec = half_sphere(fill)

        def run():
            run_cls = REGISTRY[algorithm]
            config = (BipConfig(bounds_policy=policy) if run_cls is BipRun
                      else run_cls.config_class())
            return run_cls(BudgetedObjective(spec, 500), config).run()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run()
            assert out.best_position is not None and out.best_position[0] <= 0
            assert math.isfinite(out.final_error)
            assert not any(math.isnan(e) for _, e in out.error_trace)
            check_invariants(out, spec, 500, run)
        outcomes.append(out)
    assert same_outcome(*outcomes)


def test_an_outcome_taken_mid_run_is_a_snapshot():
    """An outcome taken between steps neither changes as the run goes on nor
    leaves a point of its own in the finished trace."""
    def start():
        return BipRun(BudgetedObjective(get_objective("F2", 2), 3000),
                      BipConfig(success_threshold=0.0))

    run = start()
    # past the cap of 2000 points, at an odd count, so the stride is 2 and
    # the snapshot's last point is not on it
    while run.objective.evals_used < 2029 and run.step():
        pass
    assert run.objective.evals_used == 2029
    early = run.outcome()
    kept = list(early.error_trace)
    assert kept[-1][0] == 2029
    finished = run.run()
    assert early.error_trace == kept
    assert same_outcome(finished, start().run())


def same_event(a, b):
    def same_float(x, y):
        return x == y or (math.isnan(x) and math.isnan(y))

    return (a.eval_index == b.eval_index and a.particle == b.particle
            and a.kind == b.kind
            and all(same_float(getattr(a, f), getattr(b, f))
                    for f in ("delta_f", "delta_x", "gamma", "sigma",
                              "probability", "fitness"))
            and ((a.position is None and b.position is None)
                 or np.array_equal(a.position, b.position)))


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(sorted(MINIMAL, key=str)),
    function=st.sampled_from(registry_names()),
    dim=st.integers(1, 3),
    max_fes=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_event_log_iterates_and_indexes_alike(variant, function, dim, max_fes, seed):
    algorithm, _ = variant
    out = run_single(algorithm, function, dim, max_fes=max_fes, seed=seed,
                     success_threshold=0.0, overrides=MINIMAL[variant])
    recorded, log = record_run(algorithm, function, dim, max_fes=max_fes, seed=seed,
                               overrides=MINIMAL[variant])
    assert same_outcome(recorded, out)
    events = list(log.events)
    assert len(events) == len(log.events)
    assert all(same_event(log.events[i], e) for i, e in enumerate(events))
    evaluated = [e.eval_index for e in events if e.kind != "scale-halve"]
    assert evaluated == list(range(1, out.evals_used + 1))
