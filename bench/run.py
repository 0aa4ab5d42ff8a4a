"""Benchmark of bareopt: seeded workloads, checked outcomes, named metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bip_grid --seed 0 --seconds 20 --trace 0

Each run starts ``worker.py`` in a fresh interpreter that imports the
package from ``src/``, runs the workload's trials for ``--seconds`` and
checks every outcome.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; ``setup_s`` is the median of
several fresh interpreters timed from launch to their first finished
trial.  With ``--trace 1`` the worker replays the same trials with spans
around each layer and the JSON carries the per-layer metrics instead.
A full record with provenance goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
# set-up samples per run: the measuring worker plus this many probes
SETUP_PROBES = 4
# the whole run, every worker included, must end well inside 180 s
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# printed and recorded, but outside the JSON result line (see README.md)
QUALITY_UNITS = {"success_rate": "1", "mean_log10_error": "log10", "failed_frac": "1"}


class WorkerError(RuntimeError):
    pass


def launch(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its set-up time."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError("worker ran past the run deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["setup_end"] - launched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bareopt" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'bareopt'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        main_argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            main_argv += ["--spans", str(OUT_DIR / f"{stem}_spans.npz")]
        result, setup = launch(main_argv, deadline)
        setups = [setup]
        attempted, failed = result["attempted"], result["failed"]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, setup = launch([*common, "--seconds", "0", "--trace", "0",
                                       "--setup-only"], deadline)
                setups.append(setup)
                attempted += probe["attempted"]
                failed += probe["failed"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = dict(result["metrics"], setup_s=statistics.median(setups))
    if args.trace:
        reported = {k: {"value": v, "unit": unit_of(k)}
                    for k, v in result["per_layer"].items()}
    else:
        reported = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record = {
        "provenance": result["provenance"],
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_samples_s": setups if not args.trace else [],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": result.get("per_layer"),
        "self_time_share": result.get("self_time_share"),
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    prov = result["provenance"]
    print(f"{args.workload} seed {args.seed}: {e2e['trials']} timed trials in "
          f"{prov['rounds']} rounds, {prov['nproc']} CPUs ({prov['cpu_model']}), "
          f"python {prov['python']}, numpy {prov['numpy']}")
    for k, u in {**END_TO_END_UNITS, **QUALITY_UNITS}.items():
        print(f"  {k:<18} {e2e[k]:.6g} {u}")
    print(f"  trial_ms_tail is p{e2e['tail_percentile']:.3g} of {e2e['trials']} trials")
    if args.trace:
        print("  self-time share of traced trial wall time:")
        for k, share in result["self_time_share"].items():
            print(f"    {k:<34} {100 * share:5.1f}%")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("self_us"):
        return "us"
    if name.endswith("self_ms"):
        return "ms"
    if name.endswith("evals_per_s"):
        return "1/s"
    if name.endswith(".calls") or name == "diagnostics.events":
        return "1/trial"
    if name.endswith(("points_per_call", ".elements")):
        return "1/call"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
