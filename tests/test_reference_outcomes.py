"""Pin outcomes and event streams of all four algorithms bit for bit.

``bench/reference.json`` holds the exact (final_error, evals_used) of every
benchmark cell for trial seeds 0-47.  Replaying a few of them here makes
every test run check that a refactor of the sweep or of the run scaffold
left the outcomes alone.  The table is only read; ``bench/make_reference.py``
re-records it when a change is meant to alter outcomes.

The table pins outcomes only, so the event streams of short recorded runs
are pinned here by the sha256 of their CSV export.  Those bytes must not
depend on which BLAS kernel numpy's OpenBLAS picks for the CPU it runs on.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bareopt.diagnostics import export_events_csv, record_run
from bareopt.harness import run_experiment

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"
SEEDS = (0, 1)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["outcomes"]


def fingerprint(outcome):
    return [float(outcome.final_error).hex(), int(outcome.evals_used)]


GRID_FUNCTIONS = ("F1", "F2", "F7", "F8")


@pytest.mark.parametrize("algorithm, function, dim, max_fes", [
    *(pytest.param("bip", f, 10, 20_000, id=f) for f in GRID_FUNCTIONS),
    *(pytest.param(a, f, 30, 30_000, id=f"{a}-{f}")
      for a in ("bbpso", "bbfwa", "gbde") for f in GRID_FUNCTIONS),
])
def test_grid_cells_match_the_reference(reference, algorithm, function, dim, max_fes):
    expected = reference[f"{algorithm}.{function}.{dim}/{max_fes}//run_experiment"]
    outcomes = run_experiment(algorithm, function, dim, n_trials=len(SEEDS),
                              max_fes=max_fes, base_seed=SEEDS[0])
    assert [fingerprint(o) for o in outcomes] == [expected[str(s)] for s in SEEDS]


@pytest.mark.parametrize("function, dim, max_fes, overrides, key", [
    ("double_well", 2, 2_000, {"k": 5}, "bip.double_well.2/2000/k=5/record_run"),
    ("F7", 10, 10_000, None, "bip.F7.10/10000//record_run"),
    ("F2", 10, 10_000, None, "gbde.F2.10/10000//record_run"),
])
def test_event_capture_runs_match_the_reference(reference, function, dim,
                                                max_fes, overrides, key):
    # recording events takes its own branch through each step
    algorithm = key.split(".", 1)[0]
    for seed in SEEDS:
        outcome, _ = record_run(algorithm, function, dim, max_fes=max_fes,
                                seed=seed, overrides=overrides)
        assert fingerprint(outcome) == reference[key][str(seed)]


EVENT_DIGESTS = {
    ("bip", "F7", 2, 0): "e125b786430701f3607387d9b73945dc8f9ff2a842f5db175c46ad6bd60b3abc",
    ("bip", "F7", 2, 1): "6ee09223d78fc3ac49058b0f16c952be9759a072faae2bf4d64c6187f7bf4b95",
    ("bbpso", "F7", 2, 0): "52cc18b7e2b5bc7c2605def2d42ac257d8d39fc4cd3f159adf697f9c1b6c1c35",
    ("bbpso", "F7", 2, 1): "a20f0b1dc59063ed10ad4203b9dc72ada17fd8a69a29f8069cd766fb6caf861c",
    ("bbfwa", "F7", 2, 0): "c7accbedaac0d6e6db378a231ecb264abd56ebca6d081d04c2e1ec3137359554",
    ("bbfwa", "F7", 2, 1): "7be64f799d49578a08dadd999974806282106b6cf434fdd3e13d0b6742cc1654",
    ("gbde", "F7", 2, 0): "3a5d600cd1ec9101d46d07ca6a7446ffb02d58e269c1cac73082513f5000ea4c",
    ("gbde", "F7", 2, 1): "653f3c5441e671c87d5d0e1beb863b1941a7cd2867f9faa85ad77e18685ff9c1",
    ("bip", "double_well", 2, 0):
        "76cded99d0a808be2816586c8ba4b981bbed9f932318fe25972c7323f0c94756",
    ("bip", "double_well", 2, 1):
        "37cae0d61c475e21bbb60e38efabccac4314f69f4fb02877f5b804bb66cf6a14",
    # the diagnose benchmark cells: dim 10, whole sweeps of 15 and 100 points
    ("bip", "F7", 10, 0): "863aea525b6c0931891ded7b78c4674f3d4617ee3aa54742bbfc91292cdaafef",
    ("bip", "F7", 10, 1): "3cd7b6fd96b4ababc1847495c3880051fdfceaf6a02a0c1e3973363f4fc4ea6f",
    ("gbde", "F2", 10, 0): "c298fe5185ab1227214534a951fd459d9ceba30df8c1f0618174aa88f3f64fbf",
    ("gbde", "F2", 10, 1): "0900d947fedf40fa9fcaa38e7a507c9e4a62c50c8be562c5ca12385bc538e268",
    # bip's mean replacement evaluates a batch of one, as the sweeps do: these
    # pin its fitness column on F11 at dim 1 and F12, where numpy's power rounds
    # a lone point differently (the F11 pair fails if the mean is not a batch)
    ("bip", "F11", 1, 0): "b6ebdb70c2b4f751ef409cef6d38945d9a3d82c1f01d6e53002c75c614ffe552",
    ("bip", "F11", 1, 1): "6d4a7cb8c541f5fa03fe8badcb25adb30d2de82a43aa0edd6ae33071d4d77099",
    ("bip", "F12", 2, 0): "b55d40a39018806c2a13039817066c9fd91df7b8fbdc7552bc360fa0eaf75467",
    ("bip", "F12", 2, 1): "b5b71f88121ec02edc9f9e7f991c5e7d4378848b80d92c49282bf6284421a9ac",
    # a budget of 1013 ends each baseline inside a step, so these pin the
    # partial last sweep too; the budget is part of the key
    ("bbpso", "F2", 10, 1013, 0):
        "7e999d6067c5710e445c7454dc99f49d6a0624c18710955a38658a7dae88f1da",
    ("bbpso", "F2", 10, 1013, 1):
        "f7bd42340dadb9e24dc4b4f2307cb37b4f5e760dac14c8fb51d6b32d257fa5ea",
    ("bbfwa", "F2", 10, 1013, 0):
        "7495cc5a5d6011bd1b0bd0544640e48678ee90f2c48ee843dcf428c43c9c3179",
    ("bbfwa", "F2", 10, 1013, 1):
        "6422f37f767f63413de5fcd27082a9fca929b17ddc97855a87841f957da5d0ec",
    ("gbde", "F2", 10, 1013, 0):
        "206e53ef346a102e4dbcd28926ee6dac2fd23618e473b8cc76c932ad8216cc07",
    ("gbde", "F2", 10, 1013, 1):
        "144067fc22a998db26baf6ab55a67bd1f451eb026c47875be2478f02ffb964f2",
}
PARTIAL_SWEEP_FES = 1013


@pytest.mark.parametrize("algorithm, function, dim, max_fes, overrides", [
    *(pytest.param(a, "F7", 2, 600, None, id=f"{a}-F7-600-None")
      for a in ("bip", "bbpso", "bbfwa", "gbde")),
    pytest.param("bip", "double_well", 2, 2_000, {"k": 5},
                 id="bip-double_well-2000-overrides4"),
    pytest.param("bip", "F7", 10, 10_000, None, id="bip-F7-10d-10000"),
    pytest.param("gbde", "F2", 10, 10_000, None, id="gbde-F2-10d-10000"),
    pytest.param("bip", "F11", 1, 10_000, None, id="bip-F11-1d-10000"),
    pytest.param("bip", "F12", 2, 10_000, None, id="bip-F12-2d-10000"),
    *(pytest.param(a, "F2", 10, PARTIAL_SWEEP_FES, None, id=f"{a}-F2-10d-1013")
      for a in ("bbpso", "bbfwa", "gbde")),
])
def test_event_streams_match_their_digests(tmp_path, algorithm, function, dim,
                                           max_fes, overrides):
    # every field of every event, scale-halve markers and mean replacements
    # included, as the CSV export writes them
    for seed in SEEDS:
        _, log = record_run(algorithm, function, dim, max_fes=max_fes, seed=seed,
                            overrides=overrides)
        path = tmp_path / f"events_{seed}.csv"
        export_events_csv(log, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        budget = (max_fes,) if max_fes == PARTIAL_SWEEP_FES else ()
        assert digest == EVENT_DIGESTS[(algorithm, function, dim, *budget, seed)]


STREAM_SCRIPT = """
import hashlib, sys
from pathlib import Path
from bareopt.diagnostics import export_events_csv, record_run

algorithm, function, dim, max_fes, path = sys.argv[1:]
_, log = record_run(algorithm, function, int(dim), max_fes=int(max_fes), seed=0)
export_events_csv(log, Path(path))
print(hashlib.sha256(Path(path).read_bytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
@pytest.mark.parametrize("algorithm, function, dim, max_fes", [
    pytest.param("bbpso", "F2", 10, PARTIAL_SWEEP_FES, id="bbpso-F2-10d-1013"),
    # bip's mean replacements are booked with the baselines' Δx
    pytest.param("bip", "F7", 10, 10_000, id="bip-F7-10d-10000"),
])
def test_event_streams_do_not_depend_on_the_blas_kernel(tmp_path, algorithm, function,
                                                        dim, max_fes, coretype):
    """A fresh interpreter told to use another of OpenBLAS's CPU kernels
    (the ones a CPU without AVX-512 gets) writes the same event CSV bytes.

    The variable is read when OpenBLAS loads, hence the fresh interpreter.
    Where numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS it is ignored, and the
    test passes trivially.
    """
    _, log = record_run(algorithm, function, dim, max_fes=max_fes, seed=0)
    export_events_csv(log, tmp_path / "here.csv")
    expected = hashlib.sha256((tmp_path / "here.csv").read_bytes()).hexdigest()
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", STREAM_SCRIPT, algorithm, function, str(dim), str(max_fes),
         str(tmp_path / "there.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected
