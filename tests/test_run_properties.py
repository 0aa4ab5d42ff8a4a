"""Run-level invariants of all four algorithms, checked through run_single.

Every run, whatever the algorithm, bounds policy, dimension or budget
(budgets below the population size included), keeps to its budget, keeps
its best position in the box, repeats itself exactly for the same seed, and
reports a best-so-far curve that never rises and ends at the last
evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bareopt.benchmarks import get_objective, registry_names
from bareopt.bip import BOUNDS_POLICIES
from bareopt.harness import run_single

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

    out = run()
    assert out.evals_used <= max_fes
    spec = get_objective(function, dim)
    if out.best_position is not None:
        assert np.all(out.best_position >= spec.lower_bound)
        assert np.all(out.best_position <= spec.upper_bound)
    assert same_outcome(out, run())
    errors = [e for _, e in out.error_trace]
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert out.error_trace[-1] == (out.evals_used, out.final_error)
