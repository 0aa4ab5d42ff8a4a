"""Command-line front end: single runs, experiment grids, diagnostics, ranking."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .baselines import DEFAULT_SUCCESS_THRESHOLD
from .benchmarks import get_objective
from .diagnostics import (
    diagnostics_basename,
    expected_solution_value,
    export_events_csv,
    export_histogram_json,
    export_trace_json,
    record_run,
    transmission_trace,
    wave_modulus,
)
from .harness import (
    ALGORITHMS,
    MULTIMODAL_FUNCTIONS,
    REGISTRY,
    UNIMODAL_FUNCTIONS,
    aggregate,
    rank_algorithms,
    run_experiment,
    run_single,
    software_versions,
    summary_dict,
    read_trials_csv,
    trial_budget,
    write_trials_csv,
)
from .records import TrialOutcome

_PRESETS = {
    "desk": {"dims": [10], "trials": 20, "max_fes": 50000},
    "full": {"dims": [30, 60, 100], "trials": 51, "max_fes": None},
}

def _entries(text: str) -> list[str]:
    """The non-blank entries of a comma list, stripped."""
    return [e for e in (part.strip() for part in text.split(",")) if e]


def _number(entry: str, convert, flag: str):
    """One entry of a comma list converted, a bad one refused by its flag."""
    try:
        return convert(entry)
    except ValueError:
        raise ValueError(f"bad {flag} entry {entry!r}") from None


def _parse_funcs(text: str) -> list[str]:
    """Expand a comma list with F-ranges, e.g. 'F1-F3,f7' -> F1 F2 F3 F7, in
    the registry's spelling, so F7 and f7 are one name; each name is kept
    once, where it first appears."""
    out = []
    for part in _entries(text):
        lo, sep, hi = part.partition("-")
        if sep and lo.upper().startswith("F") and hi.upper().startswith("F"):
            a, b = lo[1:], hi[1:]
            if not (a.isdecimal() and b.isdecimal() and int(a) <= int(b)):
                raise ValueError(f"bad function range {part!r}; write it as F<low>-F<high>")
            out.extend(f"F{i}" for i in range(int(a), int(b) + 1))
        else:
            out.append(part)
    if not out:
        raise ValueError("no functions given")
    return list(dict.fromkeys(get_objective(f, 2).name for f in out))


def _parse_group(text: str, available) -> list[str]:
    key = text.strip().lower()
    if key == "multimodal":
        return list(MULTIMODAL_FUNCTIONS)
    if key == "unimodal":
        return list(UNIMODAL_FUNCTIONS)
    if key == "all":
        return list(available)
    return _parse_funcs(text)


def _add_run_flags(p: argparse.ArgumentParser, threshold_default: float):
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--func", required=True, help="objective name, e.g. F7 or double_well")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--max-fes", type=int, default=None,
                   help="evaluation budget (default 10000*dim)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--success-threshold", type=float, default=threshold_default)
    # every flag below sets the config field named by its dest
    overrides = [
        p.add_argument("--init", dest="init_position",
                       help="comma-separated start point, every particle begins there (bip only)"),
        p.add_argument("--k", type=int, help="bip population size"),
        p.add_argument("--amplitude-a", type=float),
        p.add_argument("--anneal-tau", type=float),
        p.add_argument("--scale-divisor", type=float),
        p.add_argument("--min-scale", type=float),
        p.add_argument("--no-mean-replace", dest="mean_replace",
                       action="store_const", const=False,
                       help="disable the population-mean collapse step (bip only)"),
        p.add_argument("--pop", dest="np_", metavar="POP", type=int,
                       help="baseline population size"),
        p.add_argument("--cr-mean", type=float),
        p.add_argument("--cr-std", type=float),
        p.add_argument("--amp-init", type=float),
        p.add_argument("--amp-grow", type=float),
        p.add_argument("--amp-shrink", type=float),
    ]
    p.set_defaults(override_flags={a.dest: a.option_strings[0] for a in overrides})


def _collect_overrides(args) -> dict:
    fields = REGISTRY[args.algo].config_class.__dataclass_fields__
    overrides = {}
    for field, flag in args.override_flags.items():
        value = getattr(args, field)
        if value is None:
            continue
        if field not in fields:
            raise ValueError(f"{flag} does not apply to {args.algo}")
        overrides[field] = value
    return overrides


def _trial_kwargs(args) -> dict:
    """The keyword arguments of the one trial of ``run`` and ``diagnose``,
    with the objective name, budget, seed, overrides and start point checked."""
    get_objective(args.func, args.dim)  # validate the name early
    max_fes = trial_budget(args.max_fes, args.dim)
    if max_fes < 1:
        raise ValueError("--max-fes must be positive")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    overrides = _collect_overrides(args)
    if "init_position" in overrides:
        start = [_number(v, float, "--init") for v in overrides["init_position"].split(",")]
        if len(start) != args.dim:
            raise ValueError(f"--init needs {args.dim} entries, got {len(start)}")
        overrides["init_position"] = start
    return {"max_fes": max_fes, "seed": args.seed,
            "success_threshold": args.success_threshold, "overrides": overrides}


def _effective_config(args, trial) -> dict:
    return {"algorithm": args.algo, "function": args.func, "dim": args.dim, **trial}


def cmd_run(args) -> int:
    trial = _trial_kwargs(args)
    outcome = run_single(args.algo, args.func, args.dim, **trial)
    print(f"algorithm={outcome.algorithm} function={outcome.function} "
          f"dim={outcome.dim} seed={outcome.seed}")
    print(f"final_error={outcome.final_error:.6e} evals_used={outcome.evals_used} "
          f"succeeded={'true' if outcome.succeeded else 'false'}")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        base = diagnostics_basename(args.algo, args.func, args.dim, args.seed)
        payload = {
            "effective_config": _effective_config(args, trial),
            "versions": software_versions(),
            "final_error": outcome.final_error,
            "evals_used": outcome.evals_used,
            "succeeded": outcome.succeeded,
            "best_fitness": outcome.best_fitness,
            "best_position": None if outcome.best_position is None
            else [float(v) for v in outcome.best_position],
            "error_trace": [[int(i), float(e)] for i, e in outcome.error_trace],
        }
        path = out_dir / f"run_{base}.json"
        path.write_text(json.dumps(payload, indent=2))
        print(f"wrote {path}")
    return 0


def cmd_experiment(args) -> int:
    if args.preset is not None:
        preset = _PRESETS[args.preset]
        if args.dims is None:
            args.dims = ",".join(str(d) for d in preset["dims"])
        if args.trials is None:
            args.trials = preset["trials"]
        if args.max_fes is None:
            args.max_fes = preset["max_fes"]
    # a repeated grid entry would run its cells again: keep the first of each
    algos = list(dict.fromkeys(_entries(args.algos)))
    if not algos:
        raise ValueError("no algorithms given")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}; known: {ALGORITHMS}")
    funcs = _parse_funcs(args.funcs)
    dims = [_number(d, int, "--dims") for d in _entries("10" if args.dims is None else args.dims)]
    dims = list(dict.fromkeys(dims))
    if not dims:
        raise ValueError("no dims given")
    if min(dims) < 1:
        raise ValueError("--dims must be positive")
    trials = args.trials if args.trials is not None else 20
    if args.max_fes is not None and args.max_fes < 1:
        raise ValueError("--max-fes must be positive")
    if trials < 1:
        raise ValueError("--trials must be positive")
    if args.base_seed < 0:
        raise ValueError("--base-seed must be nonnegative")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = {}
    failures = []
    for algo in algos:
        for func in funcs:
            for dim in dims:
                try:
                    cell = run_experiment(
                        algo, func, dim,
                        n_trials=trials, max_fes=trial_budget(args.max_fes, dim),
                        base_seed=args.base_seed,
                        success_threshold=args.success_threshold,
                    )
                except ValueError as exc:  # a bad cell; keep the grid going
                    failures.append({"algorithm": algo, "function": func,
                                     "dim": dim, "error": f"{type(exc).__name__}: {exc}"})
                    print(f"FAILED {algo} {func} {dim}d: {exc}", file=sys.stderr)
                    continue
                cells[(algo, func, dim)] = cell
                stats = aggregate(cell)
                print(f"{algo:6s} {func:12s} {dim:4d}d  best={stats.best:.3e} "
                      f"mean={stats.mean:.3e} std={stats.std:.3e} sr={stats.sr:.2f}")

    rankings = {}
    for dim in dims:
        per_dim = {(a, f): aggregate(c) for (a, f, d), c in cells.items() if d == dim}
        done_funcs = [f for f in funcs
                      if all((a, f) in per_dim for a in algos)]
        groups = {
            f"all_{dim}d": done_funcs,
            f"multimodal_{dim}d": [f for f in done_funcs if f in MULTIMODAL_FUNCTIONS],
            f"unimodal_{dim}d": [f for f in done_funcs if f in UNIMODAL_FUNCTIONS],
        }
        for label, group in groups.items():
            if group and per_dim:
                rankings[label] = rank_algorithms(per_dim, group)

    trials_path = out_dir / "trials.csv"
    write_trials_csv(trials_path, [o for cell in cells.values() for o in cell])
    summary = summary_dict(
        cells, rankings,
        success_threshold=args.success_threshold,
        max_fes=args.max_fes, n_trials=trials, base_seed=args.base_seed,
    )
    if failures:
        summary["failures"] = failures
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))
    print(f"wrote {trials_path} and {summary_path}")
    for label, table in rankings.items():
        avg = "  ".join(f"{a}={table.average[a]:.2f}" for a in table.algorithms)
        print(f"average rank [{label}]: {avg}")
    return 1 if failures else 0


def cmd_diagnose(args) -> int:
    if args.bins < 1:
        raise ValueError("--bins must be at least 1")
    trial = _trial_kwargs(args)
    outcome, log = record_run(args.algo, args.func, args.dim, **trial)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = diagnostics_basename(args.algo, args.func, args.dim, args.seed)
    meta = {"algorithm": args.algo, "function": args.func,
            "dim": args.dim, "seed": args.seed,
            "effective_config": _effective_config(args, trial),
            "versions": software_versions()}

    events_path = out_dir / f"events_{base}.csv"
    export_events_csv(log, events_path)
    hist = wave_modulus(log, bins_per_dim=args.bins)
    hist_path = out_dir / f"histogram_{base}.json"
    export_histogram_json(hist, hist_path, meta)
    trace = transmission_trace(log)
    trace_path = out_dir / f"trace_{base}.json"
    export_trace_json(trace, trace_path, meta)

    print(f"final_error={outcome.final_error:.6e} evals_used={outcome.evals_used}")
    print(f"expected_solution_value={expected_solution_value(log):.6e}")
    if not hist.marginal:
        cell = hist.mode_cell()
        bounds = ", ".join(f"[{lo:.3f}, {hi:.3f}]" for lo, hi in hist.cell_bounds(cell))
        print(f"mode_cell={cell} bounds=({bounds})")
    print(f"tunneling_decisions={len(trace)}")
    print(f"wrote {events_path}, {hist_path}, {trace_path}")
    return 0


def cmd_rank(args) -> int:
    rows = read_trials_csv(args.csv)
    if not rows:
        raise ValueError(f"{args.csv}: no data rows")
    dims = sorted({r["dim"] for r in rows})
    if args.dim is not None:
        rows = [r for r in rows if r["dim"] == args.dim]
        if not rows:
            raise ValueError(f"no rows with dim {args.dim}")
    elif len(dims) > 1:
        raise ValueError(f"CSV holds several dims {dims}; pick one with --dim")
    group = _parse_group(args.group, list(dict.fromkeys(r["function"] for r in rows)))
    cells: dict = {}
    for r in rows:
        cells.setdefault((r["algorithm"], r["function"]), []).append(TrialOutcome(**r))
    table = rank_algorithms({key: aggregate(c) for key, c in cells.items()}, group)
    payload = {**table.as_dict(), "dim": rows[0]["dim"], "versions": software_versions(),
               "csv_sha256": hashlib.sha256(Path(args.csv).read_bytes()).hexdigest()}
    text = json.dumps(payload, indent=2)
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ranks.json").write_text(text)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bareopt",
        description="Bare-bones global optimizers and their benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded trial")
    _add_run_flags(p_run, threshold_default=0.0)
    p_run.add_argument("--out", type=str, default=None,
                       help="directory for the run JSON (optional)")
    p_run.set_defaults(func_cmd=cmd_run)

    p_exp = sub.add_parser("experiment", help="grid of seeded trials")
    p_exp.add_argument("--algos", type=str, default=",".join(ALGORITHMS))
    p_exp.add_argument("--funcs", type=str, default="F1-F12")
    p_exp.add_argument("--dims", type=str, default=None,
                       help="comma-separated dimensions (default 10)")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--max-fes", type=int, default=None,
                       help="budget per trial (default 10000*dim)")
    p_exp.add_argument("--base-seed", type=int, default=1)
    p_exp.add_argument("--success-threshold", type=float, default=DEFAULT_SUCCESS_THRESHOLD)
    p_exp.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p_exp.add_argument("--out", type=str, default="results")
    p_exp.set_defaults(func_cmd=cmd_experiment)

    p_diag = sub.add_parser("diagnose", help="one trial with full event capture")
    _add_run_flags(p_diag, threshold_default=0.0)
    p_diag.add_argument("--bins", type=int, default=50)
    p_diag.add_argument("--out", type=str, default="diagnostics")
    p_diag.set_defaults(func_cmd=cmd_diagnose)

    p_rank = sub.add_parser("rank", help="average ranks from a trials CSV")
    p_rank.add_argument("--csv", type=str, required=True)
    p_rank.add_argument("--group", type=str, default="all",
                        help="multimodal, unimodal, all, or a function list")
    p_rank.add_argument("--dim", type=int, default=None)
    p_rank.add_argument("--out", type=str, default=None)
    p_rank.set_defaults(func_cmd=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not getattr(args, "success_threshold", 0.0) >= 0:  # NaN included; rank has none
            raise ValueError("--success-threshold must be nonnegative")
        return args.func_cmd(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
