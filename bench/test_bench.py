"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import worker
from workloads import WORKLOADS, check_outcome, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(workload, max_fes=300):
    return replace(workload, cells=tuple(replace(c, max_fes=max_fes)
                                         for c in workload.cells))


@pytest.fixture
def reference():
    return load_reference()


def test_benchmark_json_follows_its_own_rules():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layer_map = (BENCH_DIR / "README.md").read_text()
    for m in SPEC["per_layer"]:
        if not m["name"].startswith("harness.cell."):
            assert f"`{m['name']}`" in layer_map, m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_at_tiny_size(name, reference, tmp_path):
    workload = tiny(WORKLOADS[name])
    runner = worker.Runner(workload, reference, tmp_path)
    trials = runner.timed_phase(seed=0, seconds=0)
    assert len(trials) == len(workload.cells)
    assert not any(t["failed"] for t in trials)
    metrics = worker.end_to_end(trials)
    assert metrics["failed_frac"] == 0 and metrics["evals_per_s"] > 0
    assert metrics["trial_ms_tail"] >= metrics["trial_ms_p50"]

    tracer = worker.tracing.Tracer()
    replay = runner.traced_replay(trials, tracer)
    assert [t["evals"] for t in replay if not t["plain"]] == [t["evals"] for t in trials]
    layers = worker.tracing.layer_metrics(
        tracer, replay, [c.label for c in workload.cells],
        untraced_wall=1.0, traced_wall=1.2)
    assert layers["tracing.overhead_ratio"] == pytest.approx(1.2)
    assert layers["benchmarks.evaluate_many.calls"] > 0
    for cell in workload.cells:
        assert layers[f"harness.cell.{cell.label}.evals_per_s"] > 0
    if name == "diagnose":
        assert layers["diagnostics.events_per_eval"] >= 1
        assert layers["diagnostics.capture_ratio"] > 0


def test_tail_leaves_ten_trials_beyond_it():
    trials = [{"wall": w / 1e3, "evals": 1, "final_error": 1.0, "failed": False}
              for w in range(1, 41)]
    metrics = worker.end_to_end(trials)
    assert metrics["trial_ms_tail"] == pytest.approx(30.0)
    assert metrics["tail_percentile"] == 75.0


def test_self_time_is_span_minus_direct_children():
    spans = {"start": np.array([0.0, 1.0, 2.0, 5.0]),
             "end": np.array([10.0, 4.0, 3.0, 6.0]),
             "parent": np.array([-1, 0, 1, 0])}
    assert worker.tracing.self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_reference_outcome_passes_and_perturbed_copies_fail(reference):
    cell = WORKLOADS["bip_grid"].cells[0]
    spec = worker.get_objective(cell.function, cell.dim)
    box = spec.lower_bound, spec.upper_bound
    outcome = worker.run_trial(cell, 0, None)[0]
    assert check_outcome(cell, 0, outcome, *box, reference) is None

    nudged = replace(outcome, final_error=math.nextafter(outcome.final_error, 1.0))
    assert "reference" in check_outcome(cell, 0, nudged, *box, reference)
    shorter = replace(outcome, evals_used=outcome.evals_used - 1)
    assert check_outcome(cell, 0, shorter, *box, reference) is not None
    outside = replace(outcome, best_position=spec.upper_bound + 1.0)
    assert "box" in check_outcome(cell, 0, outside, *box, reference)
    bent = replace(outcome, error_trace=[(1, 1.0), (2, 2.0), (outcome.evals_used, 0.5)])
    assert "monotone" in check_outcome(cell, 0, bent, *box, reference)
    over = replace(outcome, evals_used=cell.max_fes + 1)
    assert "budget" in check_outcome(cell, 0, over, *box, reference)


def test_perturbed_outcome_is_counted_in_failed_frac(reference, tmp_path, monkeypatch):
    workload = tiny(WORKLOADS["bip_grid"])
    original = worker.harness.run_single

    def perturbed(*args, **kwargs):
        outcome = original(*args, **kwargs)
        if kwargs["seed"] == 1 and args[1] == "F2":
            outcome.final_error = math.nan
        return outcome

    monkeypatch.setattr(worker.harness, "run_single", perturbed)
    trials = worker.Runner(workload, reference, tmp_path).timed_phase(seed=0, seconds=0.2)
    assert len(trials) >= 2 * len(workload.cells)
    assert worker.end_to_end(trials)["failed_frac"] == pytest.approx(1 / len(trials))


def test_raising_trial_is_failed_not_fatal(reference, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(worker.harness, "run_single", boom)
    runner = worker.Runner(tiny(WORKLOADS["baseline_grid"]), reference, tmp_path)
    trials = runner.timed_phase(seed=0, seconds=0)
    assert all(t["failed"] for t in trials)


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = run_bench(ROOT, "--workload", "bip_grid", "--seed", "0",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "bip_grid", "--seed", "0",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
