"""Pin outcomes and event streams of all four algorithms bit for bit.

``bench/reference.json`` holds the exact (final_error, evals_used) of every
benchmark cell for trial seeds 0-47.  Replaying a few of them here makes
every test run check that a refactor of the sweep or of the run scaffold
left the outcomes alone.  The table is only read; ``bench/make_reference.py``
re-records it when a change is meant to alter outcomes.

The table pins outcomes only, so the event streams of short recorded runs
are pinned here by the sha256 of their CSV export.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bareopt.diagnostics import export_events_csv, record_run
from bareopt.harness import run_experiment

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
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
    ("bip", "F7", 2, 1): "01d1e98747b1abee8b7e6c774b37870019ca841343f09da2f9bbe351fd806721",
    ("bbpso", "F7", 2, 0): "c21952d82af4ecd3d71cad221c1a42266185a7e16e03ffc0de6b7f18389323ed",
    ("bbpso", "F7", 2, 1): "efc9d294669afec0d4a3d320d066b111127f269fe14fba5298f13b9826c06b95",
    ("bbfwa", "F7", 2, 0): "60979c8fab8a4d77275947fa69bbf409af89a99531fe82de75df674d70414e2b",
    ("bbfwa", "F7", 2, 1): "2ea0fa8c6ff494ea639b1043ad481ccf0b43902ce65bb417b152a9014073661c",
    ("gbde", "F7", 2, 0): "464f6a94bba9d339aa3002c8faf92fa45b8cfffa351423ab893f75a744f30321",
    ("gbde", "F7", 2, 1): "f639054f1d6f121d1bc12f2bf4b8bcf6bce530c28ab1e588f4093614a951b8a2",
    ("bip", "double_well", 2, 0):
        "76cded99d0a808be2816586c8ba4b981bbed9f932318fe25972c7323f0c94756",
    ("bip", "double_well", 2, 1):
        "37cae0d61c475e21bbb60e38efabccac4314f69f4fb02877f5b804bb66cf6a14",
    # the diagnose benchmark cells: dim 10, whole sweeps of 15 and 100 points
    ("bip", "F7", 10, 0): "522d3363369a1d872df50145871873d71aa2b60f602ecaa338d588805f2eb80a",
    ("bip", "F7", 10, 1): "a96e44a90cc34ffdaacd2bb90d94abdd598c24082742c528f0612a4924574de7",
    ("gbde", "F2", 10, 0): "66600b783dca38252ffb7b9eaa73e1c67ce48e7031a17bd5607a7ee835149764",
    ("gbde", "F2", 10, 1): "9867fa772132841de9dcd2df281e0581b71b4fe0a0addbbba1d2675fdc2f34d5",
    # bip's mean replacement evaluates one point, which F11 at dim 1 and F12
    # can round differently from a batch: these pin its fitness column (the F11
    # pair fails if the mean is evaluated as a batch of one)
    ("bip", "F11", 1, 0): "c7a405644a6dca2ac1c56fc864c6822b40c94c5dfb78b204057ea4398a7d531a",
    ("bip", "F11", 1, 1): "a3cd4eb193ec87d886054585f14baf14b49de0a9327ccb757149cb255c0f1a76",
    ("bip", "F12", 2, 0): "126cc4e1ef306d0e863c64088392830445a4501757fc5c2ad720dc2b32c13c17",
    ("bip", "F12", 2, 1): "86c473841a227adb805f5903c7cf959d50f7196b58b9e32dceca33e76e091991",
    # a budget of 1013 ends each baseline inside a step, so these pin the
    # partial last sweep too; the budget is part of the key
    ("bbpso", "F2", 10, 1013, 0):
        "b0e8a519d2425c1d4b90115283ae3d8b1da2ce0998c0109877f93168ed9fe8a0",
    ("bbpso", "F2", 10, 1013, 1):
        "fb88240342daf471f4e558c76f021676584917195dfb7bfabbc9463f236a434b",
    ("bbfwa", "F2", 10, 1013, 0):
        "a9648f7386bccd3ed527fab1dfffcbd5d02cddc7ae9097353a55bfa911e9cef8",
    ("bbfwa", "F2", 10, 1013, 1):
        "7b6e6f000b31508ecdb24137374a535f2f8f68dcba07c6e8ac22b5f9d7e986bd",
    ("gbde", "F2", 10, 1013, 0):
        "b08b797fa2a712c22249cc7cd0d1b2944885358e8c18ffd65380721a2ec858f5",
    ("gbde", "F2", 10, 1013, 1):
        "8d6b841b9b94afcc22c6f9a87969c176accc7f7000586a934470913dff9babaa",
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
