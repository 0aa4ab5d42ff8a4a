"""Run-level invariants of all four algorithms, checked through run_single.

Every run, whatever the algorithm, dimension or budget
(budgets below the population size included), keeps to its budget, keeps
its best position in the box, repeats itself exactly for the same seed, and
reports a best-so-far curve that never rises and ends at the last
evaluation.  A constant objective, where every move ties, is held to the
same invariants, by bip under settings that take other branches of its step
too, and so is one that is NaN or +inf over half the box, where
every run must still report a best point and a curve without NaN, and warn
nothing, and log no NaN gap; the NaN half gives the +inf half's outcome
exactly.  An outcome taken mid-run is a snapshot the rest of the run leaves
alone.  A bip step that skips the collapse check leaves a population the
check would not have collapsed.  Recording events leaves the outcome as it
is, every column of a recorded log has one row per event, with one evaluated
row per evaluation in order, and every algorithm's rows follow one kind,
probability and Δx rule.
"""

import math
import warnings
from unittest.mock import patch

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
from bareopt import bip
from bareopt.bip import BipConfig, BipRun
from bareopt.diagnostics import record_run
from bareopt.harness import REGISTRY, run_single
from bareopt.records import (
    ACCEPT_BETTER,
    ACCEPT_TUNNEL,
    ACCEPTED_KINDS,
    INIT,
    MEAN_REPLACE,
    REJECT,
    SCALE_HALVE,
    EventLog,
)

# the smallest population each algorithm accepts
MINIMAL = {
    "bip": {"k": 2},
    "bbpso": {"np_": 2},
    "bbfwa": {"np_": 1},
    "gbde": {"np_": 4},
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
    algorithm=st.sampled_from(sorted(MINIMAL)),
    function=st.sampled_from(registry_names()),
    dim=st.integers(1, 3),
    max_fes=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    success_threshold=st.sampled_from([0.0, 1e-8]),
)
def test_run_invariants(algorithm, function, dim, max_fes, seed, success_threshold):
    def run():
        return run_single(algorithm, function, dim, max_fes=max_fes, seed=seed,
                          success_threshold=success_threshold,
                          overrides=MINIMAL[algorithm])

    check_invariants(run(), get_objective(function, dim), max_fes, run)


@settings(max_examples=100, deadline=None)
@given(
    mean_replace=st.booleans(),
    amplitude_a=st.sampled_from([0.0, 1.0]),
    at_optimum=st.booleans(),
    function=st.sampled_from(registry_names()),
    dim=st.integers(1, 3),
    max_fes=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_skipped_collapse_check_would_have_said_no(mean_replace, amplitude_a, at_optimum,
                                                     function, dim, max_fes, seed):
    """A step that goes on without running the collapse check leaves a
    population the check would not collapse.  Both ways a check could be
    wrongly skipped are drawn here: a transition without mean replacement
    halves sigma_s and moves no one, and a mean replacement can leave the
    population bitwise as it was, as it does for a greedy population started
    on one point at the optimum, which no move improves."""
    check = bip.ground_state_reached
    checks = []

    def counted(positions, sigma_s):
        checks.append(sigma_s)
        return check(positions, sigma_s)

    spec = get_objective(function, dim)
    config = BipConfig(**MINIMAL["bip"], mean_replace=mean_replace,
                       amplitude_a=amplitude_a, seed=seed,
                       init_position=spec.optimum_position if at_optimum else None)
    run = BipRun(BudgetedObjective(spec, max_fes), config, success_threshold=0.0)
    with patch.object(bip, "ground_state_reached", counted):
        while True:
            before = len(checks)
            if not run.step():
                break
            if len(checks) == before:
                assert not check(run.positions, run.sigma_s)


def constant(dim):
    return ObjectiveSpec(
        name="constant", dim=dim, lower_bound=np.full(dim, -2.0),
        upper_bound=np.full(dim, 3.0), optimum_position=np.zeros(dim),
        optimum_value=0.0, _impl=lambda x: np.ones(x.shape[:-1]),
    )


# each algorithm at its defaults, and bip with overrides that take other
# branches of its step: ``k`` 2 collapses nearly every sweep, no mean
# replacement makes a transition that spends no evaluation, and greedy bip
# rejects worsening moves without drawing
def variants(*bip_variants):
    return {**{name: (name, {}) for name in REGISTRY},
            **{f"bip-{name}": ("bip", overrides) for name, overrides in bip_variants}}


ON_A_PLATEAU = variants(("k2", MINIMAL["bip"]), ("no-mean-replace", {"mean_replace": False}))
ON_A_CLIFF = variants(("greedy", {"amplitude_a": 0.0}),
                      ("no-mean-replace", {"mean_replace": False}))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("max_fes", [1, 7, 300])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("variant", list(ON_A_PLATEAU))
def test_a_constant_objective_runs_out_the_budget(variant, dim, max_fes):
    algorithm, overrides = ON_A_PLATEAU[variant]
    spec = constant(dim)

    def start():
        run_cls = REGISTRY[algorithm]
        return run_cls(BudgetedObjective(spec, max_fes),
                       run_cls.config_class(seed=3, **overrides))

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


@pytest.mark.parametrize("variant", list(ON_A_CLIFF))
def test_nan_evaluations_leave_a_best_point_and_a_curve(variant):
    """NaN and +inf alike: a best point, a finite error, no NaN in the curve,
    and no runtime warning (inf - inf in a fitness gap would raise one).  The
    metered objective reports NaN as +inf, so every decision ranks a NaN as
    worst and both runs give the same outcome.  A recorded run gives that
    outcome too, and logs no NaN gap: a move from +inf to +inf has gap 0."""
    algorithm, overrides = ON_A_CLIFF[variant]
    outcomes = []
    for fill in (np.nan, np.inf):
        spec = half_sphere(fill)

        def run(events=None):
            run_cls = REGISTRY[algorithm]
            return run_cls(BudgetedObjective(spec, 500), run_cls.config_class(**overrides),
                           events=events).run()

        log = EventLog()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run()
            assert out.best_position is not None and out.best_position[0] <= 0
            assert math.isfinite(out.final_error)
            assert not any(math.isnan(e) for _, e in out.error_trace)
            check_invariants(out, spec, 500, run)
            assert same_outcome(run(log), out)
        gaps = log.column("delta_f")
        assert not np.isnan(gaps).any()
        moves_to_inf = (log.column("kind") != INIT) & np.isinf(log.column("fitness"))
        assert 0.0 in gaps[moves_to_inf] and set(gaps[moves_to_inf].tolist()) <= {0.0, math.inf}
        outcomes.append(out)
    assert same_outcome(*outcomes)


def test_an_outcome_taken_mid_run_is_a_snapshot():
    """An outcome taken between steps neither changes as the run goes on nor
    leaves a point of its own in the finished trace."""
    def start():
        return BipRun(BudgetedObjective(get_objective("F2", 2), 3000), BipConfig(),
                      success_threshold=0.0)

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


@settings(max_examples=100, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(MINIMAL)),
    function=st.sampled_from(registry_names()),
    dim=st.integers(1, 3),
    max_fes=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_event_log_columns_cover_every_evaluation(algorithm, function, dim, max_fes, seed):
    out = run_single(algorithm, function, dim, max_fes=max_fes, seed=seed,
                     success_threshold=0.0, overrides=MINIMAL[algorithm])
    recorded, log = record_run(algorithm, function, dim, max_fes=max_fes, seed=seed,
                               overrides=MINIMAL[algorithm])
    assert same_outcome(recorded, out)
    for name in ("index", "particle", "kind", "delta_f", "delta_x", "probability",
                 "fitness"):
        assert len(log.events.column(name)) == len(log.events)
    evaluated = log.events.column("index")[log.events.column("kind") != SCALE_HALVE]
    assert evaluated.tolist() == list(range(1, out.evals_used + 1))
    # one kind and probability rule for every algorithm
    kind = log.events.column("kind")
    gap = log.events.column("delta_f")
    prob = log.events.column("probability")
    better, tunnel = kind == ACCEPT_BETTER, kind == ACCEPT_TUNNEL
    assert (gap[better] <= 0).all() and (prob[better] == 1).all()
    assert algorithm == "bip" or not tunnel.any()
    assert (gap[tunnel] > 0).all()
    assert (prob[(kind == INIT) | (kind == MEAN_REPLACE)] == 1).all()
    assert algorithm == "bip" or (prob[kind == REJECT] == 0).all()
    # and one Δx rule: the length of the move from the position its particle
    # held before the step, summed as numpy sums (bbfwa's sparks all move from
    # particle 0's centre); init rows log 0
    held = {}
    for batch in log.events.batches:
        if batch.position is None:  # a scale-halve marker
            continue
        if batch.kind[0] == INIT:
            assert (batch.delta_x == 0).all()
        else:
            before = np.array([held[p] for p in batch.particle.tolist()])
            jumps = np.sqrt(np.add.reduce((batch.position - before) ** 2, axis=1))
            assert batch.delta_x.tobytes() == jumps.tobytes()
        for p, k, x in zip(batch.particle.tolist(), batch.kind.tolist(), batch.position):
            if k in ACCEPTED_KINDS:
                held[p] = x
