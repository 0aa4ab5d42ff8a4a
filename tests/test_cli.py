"""Tests for the command-line interface."""

import csv
import hashlib
import json
import math
import platform
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import bareopt
from bareopt import cli
from bareopt.baselines import GbdeConfig
from bareopt.cli import main
from bareopt.harness import (
    REGISTRY, aggregate, rank_algorithms, rank_cells, read_trials_csv, run_experiment,
)
from bareopt.records import TrialOutcome


# what every output file records as the software that produced it
VERSIONS = {
    "bareopt": bareopt.__version__,
    "numpy": np.__version__,
    "numpy_simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    "python": platform.python_version(),
}


class TestRun:
    def test_reports_the_outcome(self, capsys):
        code = main(["run", "--algo", "bip", "--func", "F7", "--dim", "2",
                     "--max-fes", "500", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "final_error=" in out and "evals_used=500" in out

    def test_deep_convergence_at_full_budget(self, capsys):
        code = main(["run", "--algo", "bip", "--func", "F7", "--dim", "10",
                     "--max-fes", "50000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        error = float(out.split("final_error=")[1].split()[0])
        assert error < 1e-10  # run subcommand defaults to running the budget out

    def test_writes_a_config_json(self, tmp_path):
        code = main(["run", "--algo", "gbde", "--func", "F2", "--dim", "3",
                     "--max-fes", "400", "--seed", "5", "--pop", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run_gbde_F2_3d_seed5.json").read_text())
        cfg = payload["effective_config"]
        assert cfg["algorithm"] == "gbde" and cfg["dim"] == 3
        assert cfg["overrides"] == {"np_": 20}
        assert payload["evals_used"] == 400
        assert len(payload["best_position"]) == 3
        assert payload["versions"] == VERSIONS

    def test_unknown_function_fails_cleanly(self, capsys):
        code = main(["run", "--algo", "bip", "--func", "F99", "--dim", "2",
                     "--max-fes", "100", "--seed", "0"])
        assert code == 2
        assert "unknown objective 'F99'" in capsys.readouterr().err

    def test_outputs_are_named_after_the_objective(self, tmp_path):
        # f7 and F7 are one objective, so they write one file
        assert main(["run", "--algo", "bip", "--func", "f7", "--dim", "2",
                     "--max-fes", "30", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "run_bip_F7_2d_seed1.json").read_text())
        assert payload["effective_config"]["function"] == "F7"

    def test_a_nan_success_threshold_is_refused(self, capsys):
        # a NaN threshold is passed by no error, so every run would fail
        code = main(["run", "--algo", "gbde", "--func", "F7", "--dim", "2",
                     "--max-fes", "200", "--success-threshold", "nan"])
        assert code == 2
        assert capsys.readouterr().err == "error: --success-threshold must be nonnegative\n"

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_a_bad_success_threshold_is_refused_by_its_flag(self, tmp_path, capsys,
                                                            command, value):
        code = main([command, "--algo", "gbde", "--func", "F7", "--dim", "2",
                     "--max-fes", "200", "--success-threshold", value,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --success-threshold must be nonnegative\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_nonfinite_setting_is_refused_before_the_trial(self, tmp_path, capsys, command,
                                                             value):
        code = main([command, "--algo", "bip", "--func", "F7", "--dim", "2", "--max-fes",
                     "2000", "--seed", "1", "--amplitude-a", value, "--out", str(tmp_path)])
        assert code == 2
        # nothing printed or written: no trial ran
        assert capsys.readouterr() == (
            "", "error: amplitude_a must be finite and nonnegative\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("algo, flag", [
        ("bip", "--anneal-tau"), ("bip", "--scale-divisor"), ("bip", "--min-scale"),
        ("bbfwa", "--amp-init"), ("bbfwa", "--amp-grow"), ("bbfwa", "--amp-shrink"),
        ("gbde", "--cr-mean"), ("gbde", "--cr-std"),
    ])
    def test_a_fixed_setting_has_no_flag(self, tmp_path, capsys, algo, flag, command):
        # these values are constants of the algorithms, not settings
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--algo", algo, "--func", "F7", "--dim", "2",
                  "--max-fes", "200", flag, "1.5", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {flag} 1.5" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_bad_start_point_entry_is_named(self, capsys):
        code = main(["run", "--algo", "bip", "--func", "F7", "--dim", "2",
                     "--max-fes", "50", "--init", "a,b"])
        assert code == 2
        assert "bad --init entry 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("flags, message", [
        (["--init", "1"], "--init needs 2 entries, got 1"),
        (["--init", "1,2,3"], "--init needs 2 entries, got 3"),
        (["--seed", "-1"], "--seed must be nonnegative"),
    ])
    def test_a_bad_start_point_or_seed_is_refused_by_its_flag(self, tmp_path, capsys,
                                                              command, flags, message):
        code = main([command, "--algo", "bip", "--func", "F7", "--dim", "2",
                     "--max-fes", "200", *flags, "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bip_only_flags_are_rejected_for_baselines(self, capsys):
        code = main(["run", "--algo", "gbde", "--func", "F7", "--dim", "2",
                     "--max-fes", "100", "--seed", "0", "--k", "9"])
        assert code == 2

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    # argparse formats a help text only when it prints it, so a stray % fails only here
    @pytest.mark.parametrize("command", ["run", "experiment", "diagnose", "rank"])
    def test_help_prints_and_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bareopt {command}")


class TestOverrides:
    @staticmethod
    def overrides_of(tmp_path, algo, flags):
        code = main(["run", "--algo", algo, "--func", "F7", "--dim", "2",
                     "--max-fes", "200", "--seed", "0", *flags,
                     "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / f"run_{algo}_F7_2d_seed0.json"
        return json.loads(path.read_text())["effective_config"]["overrides"]

    @pytest.mark.parametrize("algo, flags, expected", [
        ("bip", ["--k", "5"], {"k": 5}),
        ("bip", ["--amplitude-a", "0.5"], {"amplitude_a": 0.5}),
        ("bip", ["--no-mean-replace"], {"mean_replace": False}),
        ("bbpso", ["--pop", "5"], {"np_": 5}),
        ("bbfwa", ["--pop", "5"], {"np_": 5}),
        ("gbde", ["--pop", "5"], {"np_": 5}),
        ("bip", ["--init", "0.5,-1"], {"init_position": [0.5, -1.0]}),
    ])
    def test_each_flag_reaches_its_config_field(self, tmp_path, algo, flags, expected):
        assert self.overrides_of(tmp_path, algo, flags) == expected

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    def test_every_setting_but_the_seed_has_one_flag(self, command):
        args = cli.build_parser().parse_args(
            [command, "--algo", "bip", "--func", "F7"])
        settings = {field for entry in REGISTRY.values()
                    for field in entry.config_class.__dataclass_fields__} - {"seed"}
        assert set(args.override_flags) == settings
        assert sorted(args.override_flags.values()) == [
            "--amplitude-a", "--init", "--k", "--no-mean-replace", "--pop"]

    def test_no_flags_give_no_overrides(self, tmp_path):
        assert self.overrides_of(tmp_path, "bip", []) == {}

    @pytest.mark.parametrize("algo, flags, message", [
        ("bip", ["--pop", "5"], "--pop does not apply to bip"),
        ("gbde", ["--k", "9"], "--k does not apply to gbde"),
        ("gbde", ["--no-mean-replace"], "--no-mean-replace does not apply to gbde"),
        ("bbfwa", ["--amplitude-a", "0.5"], "--amplitude-a does not apply to bbfwa"),
        ("gbde", ["--init", "1,1"], "--init does not apply to gbde"),
        ("bbpso", ["--init", "a"], "--init does not apply to bbpso"),
    ])
    def test_a_flag_for_another_algorithm_is_rejected(self, capsys, algo, flags,
                                                       message):
        code = main(["run", "--algo", algo, "--func", "F7", "--dim", "2",
                     "--max-fes", "200", "--seed", "0", *flags])
        assert code == 2
        assert message in capsys.readouterr().err


class TestExperiment:
    def test_grid_rows_and_summary(self, tmp_path, capsys):
        code = main(["experiment", "--algos", "bip,gbde", "--funcs", "F7",
                     "--dims", "2", "--trials", "2", "--max-fes", "400",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_trials_csv(tmp_path / "trials.csv")
        assert len(rows) == 4  # 2 algorithms x 1 function x 1 dim x 2 trials
        assert {r.algorithm for r in rows} == {"bip", "gbde"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert len(summary["cells"]) == 2
        assert "rankings" in summary
        # each ranking is the one ``rank_cells`` gives over the rows beside it
        cells = {}
        for r in rows:
            cells.setdefault((r.algorithm, r.function, r.dim), []).append(r)
        assert summary["rankings"] == {label: rank_cells(cells, 2, ["F7"])
                                       for label in ("all_2d", "unimodal_2d")}
        out = capsys.readouterr().out
        assert "average rank" in out

    def test_each_success_rate_is_the_share_of_its_succeeded_rows(self, tmp_path):
        code = main(["experiment", "--algos", "bbpso,gbde", "--funcs", "F1,F7",
                     "--dims", "2", "--trials", "4", "--max-fes", "2000",
                     "--success-threshold", "1e-3", "--out", str(tmp_path)])
        assert code == 0
        rows = read_trials_csv(tmp_path / "trials.csv")
        cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert len(cells) == 4
        for cell in cells:
            flags = [r.succeeded for r in rows
                     if (r.algorithm, r.function) == (cell["algorithm"], cell["function"])]
            assert len(flags) == cell["n_trials"] == 4
            assert cell["sr"] == sum(flags) / len(flags)
        # the threshold splits the grid: some trials reach it, others miss it
        assert any(0 < cell["sr"] < 1 for cell in cells)

    def test_summary_names_the_software_versions(self, tmp_path):
        code = main(["experiment", "--algos", "bip,gbde", "--funcs", "F7", "--dims", "2",
                     "--trials", "1", "--max-fes", "200", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["versions"] == VERSIONS
        # exactly these keys: none depends on how the run went
        assert list(summary) == ["schema_version", "success_threshold", "max_fes", "n_trials",
                                 "base_seed", "versions", "cells", "rankings"]

    def test_each_cell_records_its_config(self, tmp_path):
        code = main(["experiment", "--algos", "gbde,bip", "--funcs", "F7", "--dims", "2",
                     "--trials", "2", "--max-fes", "200", "--out", str(tmp_path)])
        assert code == 0
        cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert [c["algorithm"] for c in cells] == ["gbde", "bip"]
        for cell in cells:
            defaults = asdict(REGISTRY[cell["algorithm"]].config_class())
            del defaults["seed"]  # the seed is each trial's, in trials.csv
            assert cell["config"] == defaults

    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        """An experiment over every function at dims 2 and 3, run once."""
        out = tmp_path_factory.mktemp("grid")
        assert main(["experiment", "--algos", "gbde,bbpso,bip", "--funcs", "F1-F12",
                     "--dims", "2,3", "--trials", "3", "--max-fes", "300",
                     "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("group", ["all", "multimodal", "unimodal"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rank_reproduces_the_experiments_own_ranks(self, grid, tmp_path, capsys,
                                                       dim, group):
        assert main(["rank", "--csv", str(grid / "trials.csv"), "--dim", str(dim),
                     "--group", group, "--out", str(tmp_path)]) == 0
        summary = json.loads((grid / "summary.json").read_text())
        expected = summary["rankings"][f"{group}_{dim}d"]
        ranks = json.loads((tmp_path / "ranks.json").read_text())
        assert ranks["ranks"] == expected["ranks"]
        assert ranks["average_rank"] == expected["average_rank"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["experiment", "--algos", "gbde", "--funcs", "F2", "--dims", "2",
                "--trials", "3", "--max-fes", "300"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_summary_records_the_default_budget_of_each_cell(self, tmp_path):
        code = main(["experiment", "--algos", "gbde", "--funcs", "F7",
                     "--dims", "2,3", "--trials", "1", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_fes"] is None  # none requested: 10000 * dim per cell
        assert {c["dim"]: c["max_fes"] for c in summary["cells"]} == {2: 20000, 3: 30000}
        assert all(r.evals_used <= 10000 * r.dim
                   for r in read_trials_csv(tmp_path / "trials.csv"))

    def test_function_ranges_expand(self, tmp_path):
        code = main(["experiment", "--algos", "gbde", "--funcs", "F1-F3",
                     "--dims", "2", "--trials", "1", "--max-fes", "200",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_trials_csv(tmp_path / "trials.csv")
        assert {r.function for r in rows} == {"F1", "F2", "F3"}

    @pytest.mark.parametrize("flag, value, cells", [
        ("--algos", "gbde,bbpso,gbde", [("gbde", "F7", 2), ("bbpso", "F7", 2)]),
        ("--funcs", "F7,F6-F8,f6", [("gbde", "F7", 2), ("gbde", "F6", 2), ("gbde", "F8", 2)]),
        ("--dims", "2,3,2", [("gbde", "F7", 2), ("gbde", "F7", 3)]),
    ])
    def test_a_repeated_grid_entry_runs_once(self, tmp_path, flag, value, cells):
        args = {"--algos": "gbde", "--funcs": "F7", "--dims": "2", flag: value}
        code = main(["experiment", *(x for kv in args.items() for x in kv),
                     "--trials", "2", "--max-fes", "50", "--out", str(tmp_path)])
        assert code == 0
        rows = read_trials_csv(tmp_path / "trials.csv")
        # one row per trial (base seed 1), cells in order of first appearance
        assert [(r.algorithm, r.function, r.dim, r.seed) for r in rows] == [
            (*cell, seed) for cell in cells for seed in (1, 2)]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [(c["algorithm"], c["function"], c["dim"]) for c in summary["cells"]] == cells

    @pytest.mark.parametrize("flags, calls", [
        (["--preset", "desk"], [(10, 20, 50000)]),
        (["--preset", "desk", "--dims", "3"], [(3, 20, 50000)]),
        (["--preset", "desk", "--trials", "2"], [(10, 2, 50000)]),
        (["--preset", "desk", "--max-fes", "100"], [(10, 20, 100)]),
        (["--preset", "full"], [(30, 51, 300000), (60, 51, 600000), (100, 51, 1000000)]),
    ])
    def test_a_preset_fills_in_the_flags_not_given(self, tmp_path, monkeypatch,
                                                   flags, calls):
        seen = []

        def record(algo, func, dim, *, n_trials, max_fes, **kwargs):
            seen.append((dim, n_trials, max_fes))
            # one trial stands in for the cell, so the grid finishes at once
            return [TrialOutcome(algo, func, dim, seed=1, final_error=0.0,
                                 evals_used=max_fes, config=GbdeConfig(seed=1))]

        monkeypatch.setattr(cli, "run_experiment", record)
        code = main(["experiment", "--algos", "gbde", "--funcs", "F7", *flags,
                     "--out", str(tmp_path)])
        assert code == 0
        assert seen == calls

    def test_desk_preset_runs_with_an_explicit_budget(self, tmp_path):
        code = main(["experiment", "--preset", "desk", "--algos", "gbde",
                     "--funcs", "F7", "--max-fes", "100", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_trials"] == 20 and summary["max_fes"] == 100
        (cell,) = summary["cells"]
        assert (cell["dim"], cell["n_trials"], cell["max_fes"]) == (10, 20, 100)
        rows = read_trials_csv(tmp_path / "trials.csv")
        assert len(rows) == 20 and all(r.dim == 10 for r in rows)

    def test_bad_algorithm_list(self, capsys):
        code = main(["experiment", "--algos", "bip,annealer", "--funcs", "F7",
                     "--dims", "2", "--trials", "1", "--max-fes", "100"])
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--dims", "0", "--dims must be positive"),
        ("--dims", "2,-1", "--dims must be positive"),
        ("--max-fes", "0", "--max-fes must be positive"),
        ("--max-fes", "-5", "--max-fes must be positive"),
        ("--trials", "0", "--trials must be positive"),
        ("--success-threshold", "-1", "--success-threshold must be nonnegative"),
        ("--success-threshold", "nan", "--success-threshold must be nonnegative"),
        ("--base-seed", "-1", "--base-seed must be nonnegative"),
        ("--funcs", "F3-F1,F7", "bad function range 'F3-F1'"),
        ("--funcs", "F7,F-F3", "bad function range 'F-F3'"),
        ("--funcs", "f1-f2x", "bad function range 'f1-f2x'"),
        ("--algos", ",", "no algorithms given"),
        ("--algos", "", "no algorithms given"),
        ("--dims", "", "no dims given"),
        ("--dims", ",", "no dims given"),
        ("--dims", "2,a", "bad --dims entry 'a'"),
    ])
    def test_an_empty_grid_is_refused_before_any_output(self, tmp_path, capsys,
                                                        flag, value, message):
        out = tmp_path / "results"
        args = {"--algos": "gbde", "--funcs": "F7", "--dims": "2", "--max-fes": "100",
                "--trials": "1", flag: value}
        code = main(["experiment", *(x for kv in args.items() for x in kv),
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_bad_cell_fails_the_run_and_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        def second_cell_bad(algo, func, dim, **kwargs):
            if func == "F8":
                raise ValueError("dim must be at least 1")
            return run_experiment(algo, func, dim, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", second_cell_bad)
        out = tmp_path / "out"
        code = main(["experiment", "--algos", "gbde", "--funcs", "F7,F8", "--dims", "2",
                     "--trials", "1", "--max-fes", "100", "--out", str(out)])
        assert code == 2
        assert "error: dim must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_a_program_fault_fails_the_run(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("fault")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(RuntimeError, match="fault"):
            main(["experiment", "--algos", "gbde", "--funcs", "F7", "--dims", "2",
                  "--trials", "1", "--max-fes", "100", "--out", str(tmp_path)])


class TestDiagnose:
    def test_writes_the_three_artifacts(self, tmp_path, capsys):
        code = main(["diagnose", "--algo", "bip", "--func", "double_well",
                     "--dim", "2", "--max-fes", "200", "--seed", "0",
                     "--k", "5", "--init", "2,2", "--out", str(tmp_path)])
        assert code == 0
        base = "bip_double_well_2d_seed0"
        events = tmp_path / f"events_{base}.csv"
        hist = tmp_path / f"histogram_{base}.json"
        trace = tmp_path / f"trace_{base}.json"
        assert events.exists() and hist.exists() and trace.exists()
        with events.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "evaluation_index"
        assert rows[1][2] == "init"
        payload = json.loads(hist.read_text())
        assert payload["marginal"] is False
        out = capsys.readouterr().out
        printed = dict(line.split("=", 1) for line in out.splitlines()
                       if line.startswith(("expected_solution_value=", "mode_cell=")))
        # each particle's fitness at its last row that sets its position, then their mean
        held = ("init", "accept-better", "accept-tunnel", "mean-replace")
        last = {row[1]: float(row[8]) for row in rows[1:] if row[2] in held}
        assert printed["expected_solution_value"] == f"{np.mean(list(last.values())):.6e}"
        counts = np.array(payload["counts"])
        mode = tuple(int(i) for i in np.unravel_index(np.argmax(counts), counts.shape))
        assert printed["mode_cell"].startswith(f"{mode} bounds=")

    def test_jsons_record_the_effective_config_and_versions(self, tmp_path):
        code = main(["diagnose", "--algo", "bip", "--func", "double_well",
                     "--dim", "2", "--max-fes", "200", "--seed", "0",
                     "--k", "5", "--init", "2,2", "--out", str(tmp_path)])
        assert code == 0
        for kind in ("histogram", "trace"):
            payload = json.loads((tmp_path / f"{kind}_bip_double_well_2d_seed0.json").read_text())
            assert payload["effective_config"] == {
                "algorithm": "bip", "function": "double_well", "dim": 2,
                "max_fes": 200, "seed": 0, "success_threshold": 0.0,
                "overrides": {"init_position": [2.0, 2.0], "k": 5},
            }
            assert payload["versions"] == VERSIONS

    def test_tunneling_decision_count_is_reported(self, tmp_path, capsys):
        main(["diagnose", "--algo", "bip", "--func", "F7", "--dim", "2",
              "--max-fes", "300", "--seed", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        n = int(out.split("tunneling_decisions=")[1].split()[0])
        base = "bip_F7_2d_seed3"
        payload = json.loads((tmp_path / f"trace_{base}.json").read_text())
        assert len(payload["trace"]) == n > 0

    def test_outputs_are_named_after_the_objective(self, tmp_path):
        assert main(["diagnose", "--algo", "bip", "--func", "f7", "--dim", "2",
                     "--max-fes", "30", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "events_bip_F7_2d_seed1.csv").exists()
        payload = json.loads((tmp_path / "trace_bip_F7_2d_seed1.json").read_text())
        assert payload["function"] == "F7"

    def test_bad_bins_are_refused_before_the_trial(self, tmp_path, capsys):
        code = main(["diagnose", "--algo", "bip", "--func", "F7", "--dim", "2",
                     "--max-fes", "300", "--seed", "3", "--bins", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--bins must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_bad_start_point_entry_is_refused_before_the_trial(self, tmp_path, capsys):
        code = main(["diagnose", "--algo", "bip", "--func", "F7", "--dim", "2",
                     "--max-fes", "300", "--init", "1,b", "--out", str(tmp_path)])
        assert code == 2
        assert "bad --init entry 'b'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRank:
    def test_ranks_a_written_experiment(self, tmp_path, capsys):
        main(["experiment", "--algos", "bip,gbde", "--funcs", "F7,F8",
              "--dims", "2", "--trials", "2", "--max-fes", "300",
              "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["rank", "--csv", str(tmp_path / "trials.csv"),
                     "--group", "F7,F8", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert set(payload["average_rank"]) == {"bip", "gbde"}
        ranks = payload["ranks"]
        assert set(ranks) == {"F7", "F8"}

    def test_ranks_json_records_its_versions_and_inputs(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            "a,F7,3,0,1.0,10,false\n"
            "b,F7,3,0,2.0,10,false\n"
        )
        assert main(["rank", "--csv", str(path), "--group", "F7",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert payload["versions"] == VERSIONS
        assert payload["dim"] == 3
        assert payload["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_reproduces_known_averages_from_a_fixture(self, tmp_path, capsys):
        # two algorithms, two functions, one trial each: a wins F7, b wins F8
        path = tmp_path / "trials.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "function", "dim", "seed",
                             "final_error", "evals_used", "succeeded"])
            writer.writerow(["a", "F7", "2", "0", "1.0", "10", "false"])
            writer.writerow(["b", "F7", "2", "0", "2.0", "10", "false"])
            writer.writerow(["a", "F8", "2", "0", "4.0", "10", "false"])
            writer.writerow(["b", "F8", "2", "0", "3.0", "10", "false"])
        code = main(["rank", "--csv", str(path), "--group", "F7,F8",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert payload["average_rank"] == {"a": 1.5, "b": 1.5}

    @pytest.mark.parametrize("group", ["f7,f8", "f7-f8", "F8,f7"])
    def test_a_group_is_read_in_the_registry_spelling(self, tmp_path, capsys, group):
        path = tmp_path / "trials.csv"
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            "a,F7,2,0,1.0,10,false\n"
            "b,F7,2,0,2.0,10,false\n"
            "a,F8,2,0,4.0,10,false\n"
            "b,F8,2,0,3.0,10,false\n"
        )
        code = main(["rank", "--csv", str(path), "--group", group,
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert sorted(payload["functions"]) == ["F7", "F8"]
        assert payload["average_rank"] == {"a": 1.5, "b": 1.5}

    @pytest.mark.parametrize("named, spelled", [("multimodal", "f1-f6"),
                                                 ("unimodal", "f7-f12")])
    def test_a_range_ranks_as_its_named_group(self, tmp_path, capsys, named, spelled):
        path = tmp_path / "trials.csv"
        rng = np.random.default_rng(0)
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            + "".join(f"{a},F{f},2,0,{rng.random()!r},10,false\n"
                      for f in range(1, 13) for a in "abc"))
        ranks = []
        for group in (named, spelled):
            out = tmp_path / group
            assert main(["rank", "--csv", str(path), "--group", group,
                         "--out", str(out)]) == 0
            ranks.append((out / "ranks.json").read_bytes())
        assert ranks[0] == ranks[1]
        assert len(json.loads(ranks[0])["functions"]) == 6

    def test_a_nan_error_ranks_last_and_the_json_stays_valid(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            "a,F7,2,0,nan,10,false\n"
            "b,F7,2,0,inf,10,false\n"
            "b,F7,2,1,1.0,10,false\n"
            "c,F7,2,0,1.0,10,false\n"
            "a,F8,2,0,1.0,10,false\n"
            "b,F8,2,0,2.0,10,false\n"
            "c,F8,2,0,3.0,10,false\n"
        )
        with warnings.catch_warnings():  # b's F7 cell has no finite std, and says nothing
            warnings.simplefilter("error")
            code = main(["rank", "--csv", str(path), "--group", "F7,F8",
                         "--out", str(tmp_path)])
        assert code == 0

        def refuse(constant):
            raise ValueError(f"bare {constant} is not JSON")

        payload = json.loads((tmp_path / "ranks.json").read_text(),
                             parse_constant=refuse)
        assert payload["ranks"]["F7"] == {"a": 3.0, "b": 2.0, "c": 1.0}
        assert payload["average_rank"] == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_ranks_by_the_same_mean_as_aggregate(self, tmp_path, capsys):
        # summed one by one, a's errors tie b's mean; aggregate's numpy mean
        # puts a above it
        errors = {"a": [1e16] + [1.0] * 7, "b": [1.25e15] * 8}
        path = tmp_path / "trials.csv"
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            + "".join(f"{a},F1,2,{seed},{e!r},10,false\n"
                      for a, cell in errors.items() for seed, e in enumerate(cell)))
        assert main(["rank", "--csv", str(path), "--group", "F1",
                     "--out", str(tmp_path)]) == 0
        ranks = json.loads((tmp_path / "ranks.json").read_text())["ranks"]["F1"]
        outcomes = read_trials_csv(path)
        means = {(a, "F1"): aggregate([o for o in outcomes if o.algorithm == a])["mean"]
                 for a in errors}
        assert ranks == rank_algorithms(means, ["F1"])["ranks"]["F1"] == {"a": 2.0, "b": 1.0}

    def test_malformed_csv_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        header = "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
        path.write_text(header + "bip,F7,2,0,1.0,100,true\n" "bip,F7,2,one,1.0,100,true\n")
        code = main(["rank", "--csv", str(path), "--group", "F7"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err
        # a header alone holds no trial to rank
        path.write_text(header)
        assert main(["rank", "--csv", str(path)]) == 2
        assert f"{path}: no data rows" in capsys.readouterr().err
        # a field past csv's size limit is a malformed row too
        path.write_text(header + "x" * (csv.field_size_limit() + 1) + "\n")
        assert main(["rank", "--csv", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2: field larger")
        # a quoted field holding a newline spans lines 2 and 3, so the bad
        # seed is on line 4, though it is the second data row
        path.write_text(header + '"bi\np",F7,2,0,1.0,100,true\n' "bip,F7,2,one,1.0,100,true\n")
        assert main(["rank", "--csv", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: line 4: invalid literal for int()")

    def test_a_missing_cell_names_the_csv_dim_algorithm_and_function(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(
            "algorithm,function,dim,seed,final_error,evals_used,succeeded\n"
            "bip,F7,2,0,1.0,10,false\n"
            "gbde,F8,2,0,2.0,10,false\n"
        )
        assert main(["rank", "--csv", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}, dim 2: gbde has no mean error on F7\n"

    def test_missing_file(self, capsys):
        code = main(["rank", "--csv", "/nonexistent/trials.csv"])
        assert code == 2
