"""One benchmark process: set up, run a workload's trials, report as JSON.

Started by ``run.py`` in a fresh interpreter so that set-up time and peak
memory mean the same on every run.  Prints one JSON object as its last
line.  ``setup_end`` is a CLOCK_MONOTONIC reading, which is system-wide,
so the parent subtracts its own launch time from it.

Closed loop, one thread: each trial starts when the previous one returns.
The run does whole rounds (one trial per cell) until ``--seconds`` have
passed.  Checks happen between trials and are not timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bareopt  # noqa: E402
from bareopt import diagnostics, get_objective, harness  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ERROR_FLOOR,
    SUCCESS_THRESHOLD,
    WORKLOADS,
    check_outcome,
    load_reference,
)

CONFIGS = {"bip": bareopt.BipConfig, "bbpso": bareopt.BbpsoConfig,
           "bbfwa": bareopt.BbfwaConfig, "gbde": bareopt.GbdeConfig}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_trial(cell, seed: int, tmpdir: Path):
    """Run one trial; return (outcome, event log or None, CSV path or None)."""
    if cell.diagnose:
        outcome, log = diagnostics.record_run(
            cell.algorithm, cell.function, cell.dim, max_fes=cell.max_fes,
            seed=seed, overrides=cell.overrides or None)
        diagnostics.wave_modulus(log)
        diagnostics.transmission_trace(log)
        path = tmpdir / f"{cell.label}.csv"
        diagnostics.export_events_csv(log, path)
        return outcome, log, path
    (outcome,) = harness.run_experiment(
        cell.algorithm, cell.function, cell.dim, n_trials=1,
        max_fes=cell.max_fes, base_seed=seed, overrides=cell.overrides or None,
        workers=1)
    return outcome, None, None


class Runner:
    """Runs and checks trials of one workload, keeping one record per trial."""

    def __init__(self, workload, reference: dict, tmpdir: Path):
        self.workload = workload
        self.reference = reference
        self.tmpdir = tmpdir
        specs = {c.label: get_objective(c.function, c.dim) for c in workload.cells}
        self.boxes = {k: (s.lower_bound, s.upper_bound) for k, s in specs.items()}

    def trial(self, cell, seed: int, plain: bool = False) -> dict:
        """Run, time and check one trial.  ``plain`` runs a diagnose cell
        through ``run_single`` with no callback and no exports."""
        log = path = None
        start = time.perf_counter()
        try:
            if plain:
                outcome = harness.run_single(
                    cell.algorithm, cell.function, cell.dim, max_fes=cell.max_fes,
                    seed=seed, success_threshold=0.0,
                    overrides=cell.overrides or None)
            else:
                outcome, log, path = run_trial(cell, seed, self.tmpdir)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            wall = time.perf_counter() - start
            return self._record(cell, seed, plain, wall, 0, math.nan,
                                f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        lower, upper = self.boxes[cell.label]
        reason = check_outcome(cell, seed, outcome, lower, upper, self.reference)
        if reason is None and log is not None:
            reason = check_log(log, path, outcome.evals_used)
        return self._record(cell, seed, plain, wall, outcome.evals_used,
                            outcome.final_error, reason)

    def _record(self, cell, seed, plain, wall, evals, error, reason):
        if reason is not None:
            print(f"FAILED {self.workload.name} {cell.label} seed {seed}: {reason}",
                  file=sys.stderr)
        return {"label": cell.label, "seed": seed, "plain": plain, "wall": wall,
                "evals": evals, "final_error": error, "failed": reason is not None}

    def timed_phase(self, seed: int, seconds: float) -> list[dict]:
        """Whole rounds until ``seconds`` have passed; at least one round."""
        out = []
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            out.extend(self.trial(cell, seed + r) for cell in self.workload.cells)
            r += 1
        return out

    def traced_replay(self, trials: list[dict], tracer) -> list[dict]:
        """Rerun the given trials traced.  Each diagnose trial is followed by
        a plain run of the same cell and seed, the base of capture_ratio."""
        cells = {c.label: c for c in self.workload.cells}
        out = []
        with tracing.installed(tracer):
            for t in trials:
                cell = cells[t["label"]]
                for plain in (False, True) if cell.diagnose else (False,):
                    tracer.trial = len(out)
                    out.append(self.trial(cell, t["seed"], plain=plain))
        return out


def check_log(log, csv_path: Path, evals_used: int) -> str | None:
    """Every evaluation was captured once and every event was exported."""
    evaluated = sum(e.kind != "scale-halve" for e in log.events)
    if evaluated != evals_used:
        return f"event log holds {evaluated} evaluations, the run made {evals_used}"
    with open(csv_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(log.events):
        return f"events CSV has {rows} rows for {len(log.events)} events"
    return None


def end_to_end(trials: list[dict]) -> dict:
    """Metrics of the timed phase (setup_s is added by the parent)."""
    walls = sorted(t["wall"] for t in trials)
    n = len(walls)
    # the highest percentile with at least ten trials beyond it; with 20
    # trials or fewer that lies at or below the median, so the maximum stands in
    beyond = 10 if n > 20 else 0
    errors = [t["final_error"] for t in trials if not math.isnan(t["final_error"])]
    return {
        "evals_per_s": sum(t["evals"] for t in trials) / sum(walls),
        "trial_ms_p50": statistics.median(walls) * 1e3,
        "trial_ms_tail": walls[n - 1 - beyond] * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "trials": n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": sum(e <= SUCCESS_THRESHOLD for e in errors) / n,
        "mean_log10_error": (statistics.fmean(math.log10(max(e, ERROR_FLOOR))
                                              for e in errors)
                             if errors else math.nan),
        "failed_frac": sum(t["failed"] for t in trials) / n,
    }


def provenance(workload, seed: int, rounds: int) -> dict:
    """Machine, software and effective parameters behind a result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bareopt").glob("*.py")):
        digest.update(path.read_bytes())
    cells = []
    for c in workload.cells:
        config = asdict(CONFIGS[c.algorithm](**c.overrides))
        config.pop("seed")
        cells.append({"algorithm": c.algorithm, "function": c.function, "dim": c.dim,
                      "max_fes": c.max_fes, "config": config,
                      "path": "record_run" if c.diagnose else "run_experiment",
                      "success_threshold": 0.0 if c.diagnose else SUCCESS_THRESHOLD})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bareopt": bareopt.__version__,
        "git_commit": commit,
        # identifies the code where there is no git metadata
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "trial_count": rounds * len(workload.cells),
        "trial_seeds": [seed, seed + rounds - 1],
        "workers": 1,
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the first trial (a set-up sample)")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, write the spans to this .npz file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    reference = load_reference()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        runner = Runner(workload, reference, Path(tmp))
        # set-up ends with the first finished trial, which is also checked
        warm = runner.trial(workload.cells[0], args.seed)
        result = {"setup_end": monotonic(), "attempted": 1, "failed": int(warm["failed"])}
        if not args.setup_only:
            trials = runner.timed_phase(args.seed, args.seconds)
            checked = [warm, *trials]
            result["metrics"] = end_to_end(trials)
            if args.trace:
                tracer = tracing.Tracer()
                replay = runner.traced_replay(trials, tracer)
                checked += replay
                traced_wall = sum(t["wall"] for t in replay if not t["plain"])
                result["per_layer"] = tracing.layer_metrics(
                    tracer, replay, sorted({c.label for w in WORKLOADS.values()
                                            for c in w.cells}),
                    untraced_wall=sum(t["wall"] for t in trials),
                    traced_wall=traced_wall)
                result["self_time_share"] = tracing.self_time_shares(tracer, replay)
            result["attempted"] = len(checked)
            result["failed"] = sum(t["failed"] for t in checked)
            rounds = len(trials) // len(workload.cells)
            result["provenance"] = provenance(workload, args.seed, rounds)
            if args.trace and args.spans:
                np.savez(args.spans, names=np.array(tracer.names),
                         trials=json.dumps(replay),
                         provenance=json.dumps(result["provenance"]),
                         **tracer.arrays())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
