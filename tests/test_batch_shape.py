"""A batch's bits do not depend on its shape.

Batched trial lanes would evaluate many sweeps as one block, so each
objective value and each tunnelling probability must come out the same
whether it is computed in a large block or in the pieces a run uses today:
sweeps, and bip's mean replacement, a batch of one.  numpy's SIMD kernels
handle a block's tail apart from its body, so these checks run again at the
SIMD level a CPU without AVX-512 gets.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from bareopt.benchmarks import BudgetedObjective, get_objective, registry_names
from bareopt.bip import _tunneling

ROOT = Path(__file__).resolve().parents[1]
AVX512_TARGETS = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)
                  and (t == "X86_V4" or t.startswith("AVX512"))]


@pytest.mark.parametrize("dim", [1, 2, 10, 30])
@pytest.mark.parametrize("name", registry_names())
def test_a_block_evaluates_as_its_sweeps(name, dim):
    spec = get_objective(name, dim)
    xs = np.random.default_rng(dim).uniform(spec.lower_bound, spec.upper_bound,
                                            size=(960, dim))
    block = BudgetedObjective(spec, len(xs)).evaluate_many(xs).tobytes()
    # slices of a 15-particle sweep, and of bip's mean replacement: a batch of one
    for rows in (15, 1):
        meter = BudgetedObjective(spec, len(xs))
        pieces = [meter.evaluate_many(xs[j:j + rows]) for j in range(0, len(xs), rows)]
        assert np.concatenate(pieces).tobytes() == block, f"slices of {rows}"


def test_tunneling_on_a_block_matches_each_sweep():
    # one sweep of 15 particles per row, each with its own gamma; a sweep
    # computes the probabilities of its worsening moves only
    rng = np.random.default_rng(0)
    delta_f = rng.choice([-1.0, 1.0], size=(64, 15)) * 10.0 ** rng.uniform(-6, 2, (64, 15))
    delta_x = 10.0 ** rng.uniform(-4, 1, (64, 15))
    gamma = 10.0 ** rng.uniform(-3, 1, 64)
    with np.errstate(invalid="ignore"):  # an improving move's root is NaN, and unread
        block = _tunneling(delta_f, delta_x, gamma[:, None], 1.0)
    for r in range(len(block)):
        worse = delta_f[r] > 0
        row = _tunneling(delta_f[r][worse], delta_x[r][worse], float(gamma[r]), 1.0)
        assert row.tobytes() == block[r][worse].tobytes(), f"row {r}"


@pytest.mark.skipif(not AVX512_TARGETS, reason="numpy enables no AVX-512 target here")
def test_without_avx512_in_a_fresh_interpreter():
    """The checks above, at the SIMD level of a CPU without AVX-512; numpy
    reads the variable when it loads, hence the fresh interpreter."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not fresh_interpreter"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
