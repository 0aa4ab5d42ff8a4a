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
    FUNCTION_GROUPS,
    REGISTRY,
    aggregate,
    rank_cells,
    run_experiment,
    run_single,
    software_versions,
    summary_dict,
    read_trials_csv,
    trial_budget,
    write_trials_csv,
)

# each preset's values in the spelling of their flags
_PRESETS = {
    "desk": {"dims": "10", "trials": 20, "max_fes": 50000},
    "full": {"dims": "30,60,100", "trials": 51, "max_fes": None},
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
    """A named group, ``all`` (the ``available`` functions) or a function list."""
    groups = {"all": available, **FUNCTION_GROUPS}
    key = text.strip().lower()
    return list(groups[key]) if key in groups else _parse_funcs(text)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--func", required=True, help="objective name, e.g. F7 or double_well")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--max-fes", type=int, default=None,
                   help="evaluation budget (default 10000*dim)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--success-threshold", type=float, default=0.0)
    # every flag below sets the config field named by its dest
    overrides = [
        p.add_argument("--init", dest="init_position",
                       help="comma-separated start point, every particle begins there (bip only)"),
        p.add_argument("--k", type=int, help="bip population size"),
        p.add_argument("--amplitude-a", type=float),
        p.add_argument("--no-mean-replace", dest="mean_replace",
                       action="store_const", const=False,
                       help="disable the population-mean collapse step (bip only)"),
        p.add_argument("--pop", dest="np_", metavar="POP", type=int,
                       help="baseline population size"),
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
    # validate the name early, and name the outputs in the registry's spelling
    args.func = get_objective(args.func, args.dim).name
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
    for flag, value in _PRESETS.get(args.preset, {}).items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
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

    cells = {}
    for algo in algos:
        for func in funcs:
            for dim in dims:
                cells[(algo, func, dim)] = cell = run_experiment(
                    algo, func, dim,
                    n_trials=trials, max_fes=trial_budget(args.max_fes, dim),
                    base_seed=args.base_seed,
                    success_threshold=args.success_threshold,
                )
                stats = aggregate(cell)
                print(f"{algo:6s} {func:12s} {dim:4d}d  best={stats.best:.3e} "
                      f"mean={stats.mean:.3e} std={stats.std:.3e} sr={stats.sr:.2f}")

    rankings = {}
    for dim in dims:
        for name, members in {"all": funcs, **FUNCTION_GROUPS}.items():
            group = [f for f in funcs if f in members]
            if group:
                rankings[f"{name}_{dim}d"] = rank_cells(cells, dim, group)

    # made only once every cell has run, so a failing cell leaves no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials_path = out_dir / "trials.csv"
    write_trials_csv(trials_path, [o for cell in cells.values() for o in cell])
    summary = summary_dict(
        cells, rankings,
        success_threshold=args.success_threshold,
        max_fes=args.max_fes, n_trials=trials, base_seed=args.base_seed,
    )
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))
    print(f"wrote {trials_path} and {summary_path}")
    for label, table in rankings.items():
        avg = "  ".join(f"{a}={table['average_rank'][a]:.2f}" for a in table["algorithms"])
        print(f"average rank [{label}]: {avg}")
    return 0


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
    outcomes = read_trials_csv(args.csv)
    if not outcomes:
        raise ValueError(f"{args.csv}: no data rows")
    dims = sorted({o.dim for o in outcomes})
    if args.dim is None and len(dims) > 1:
        raise ValueError(f"CSV holds several dims {dims}; pick one with --dim")
    dim = dims[0] if args.dim is None else args.dim
    if dim not in dims:
        raise ValueError(f"no rows with dim {dim}")
    cells: dict = {}
    for o in outcomes:
        cells.setdefault((o.algorithm, o.function, o.dim), []).append(o)
    group = _parse_group(args.group, dict.fromkeys(f for _, f, d in cells if d == dim))
    try:
        table = rank_cells(cells, dim, group)
    except ValueError as exc:  # say which file and dim lack the cell
        raise ValueError(f"{args.csv}, dim {dim}: {exc}") from None
    payload = {**table, "dim": dim, "versions": software_versions(),
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
    _add_run_flags(p_run)
    p_run.add_argument("--out", type=str, default=None,
                       help="directory for the run JSON (optional)")
    p_run.set_defaults(func_cmd=cmd_run)

    p_exp = sub.add_parser("experiment", help="grid of seeded trials")
    p_exp.add_argument("--algos", type=str, default=",".join(ALGORITHMS))
    p_exp.add_argument("--funcs", type=str, default="F1-F12")
    p_exp.add_argument("--dims", type=str, default=None,
                       help="comma-separated dimensions (default 10)")
    p_exp.add_argument("--trials", type=int, default=None, help="trials per cell (default 20)")
    p_exp.add_argument("--max-fes", type=int, default=None,
                       help="budget per trial (default 10000*dim)")
    p_exp.add_argument("--base-seed", type=int, default=1)
    p_exp.add_argument("--success-threshold", type=float, default=DEFAULT_SUCCESS_THRESHOLD)
    p_exp.add_argument("--preset", choices=sorted(_PRESETS), default=None, help=(
        "desk: --dims 10 --trials 20 --max-fes 50000; full: --dims 30,60,100 --trials 51"))
    p_exp.add_argument("--out", type=str, default="results")
    p_exp.set_defaults(func_cmd=cmd_experiment)

    p_diag = sub.add_parser("diagnose", help="one trial with full event capture")
    _add_run_flags(p_diag)
    p_diag.add_argument("--bins", type=int, default=50, help="histogram bins per dim (default 50)")
    p_diag.add_argument("--out", type=str, default="diagnostics")
    p_diag.set_defaults(func_cmd=cmd_diagnose)

    p_rank = sub.add_parser("rank", help="average ranks from a trials CSV")
    p_rank.add_argument("--csv", type=str, required=True)
    p_rank.add_argument("--group", type=str, default="all",
                        help=f"{', '.join(FUNCTION_GROUPS)}, all, or a function list")
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
