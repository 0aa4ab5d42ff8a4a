"""Tests for the experiment harness: trials, statistics, ranking, files."""

import json
import math
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from bareopt.baselines import GbdeConfig
from bareopt.benchmarks import BudgetedObjective, get_objective
from bareopt.harness import (
    ALGORITHMS,
    FUNCTION_GROUPS,
    REGISTRY,
    SUMMARY_SCHEMA_VERSION,
    TRIAL_CSV_COLUMNS,
    aggregate,
    build_config,
    rank_algorithms,
    rank_cells,
    read_trials_csv,
    run_experiment,
    run_single,
    summary_dict,
    write_trials_csv,
)
from bareopt.records import TrialOutcome


def outcome(err, *, algorithm="bip", function="F7", dim=2, seed=0, succeeded=None):
    if succeeded is None:
        succeeded = err <= 1e-8
    return TrialOutcome(
        algorithm=algorithm, function=function, dim=dim, seed=seed,
        final_error=err, evals_used=100, error_trace=[(100, err)],
        succeeded=succeeded,
    )


# mean-error rows as printed in the reference comparison, 30D, four
# algorithms; the two function groups carry known average ranks
PRINTED_MEANS_MULTI = {
    "bip":   [2.66e-03, 1.50e+02, 4.92e-01, 3.78e-01, 2.31e+01, 7.78e+03],
    "bbpso": [1.14e-02, 5.23e+01, 8.85e-01, 3.30e+00, 9.24e-13, 3.05e+03],
    "bbfwa": [1.18e-02, 9.97e+01, 1.64e-01, 1.04e+01, 1.79e+00, 4.94e+03],
    "gbde":  [2.18e-18, 2.69e+00, 7.99e-15, 1.50e-32, 1.04e-06, 2.02e+02],
}
PRINTED_MEANS_UNI = {
    "bip":   [6.28e-161, 1.49e-21, 2.75e-158, 4.95e-31, 2.75e-09, 1.06e-34],
    "bbpso": [2.63e-236, 8.03e-236, 5.41e-231, 2.11e-26, 0.00e+00, 4.26e-21],
    "bbfwa": [2.26e-13, 1.13e-09, 6.71e-09, 6.82e-11, 1.54e-09, 6.91e-12],
    "gbde":  [3.48e-57, 2.63e-55, 1.52e-51, 1.48e-30, 3.81e-127, 5.86e-02],
}


class TestAggregate:
    def test_hand_computed_cell(self):
        outs = [outcome(0.0, seed=0), outcome(2.0, seed=1)]
        stats = aggregate(outs)
        assert stats.best == 0.0
        assert stats.mean == 1.0
        assert stats.std == pytest.approx(math.sqrt(2.0))  # n-1 normalization
        assert stats.sr == 0.5
        assert stats.n_trials == 2

    def test_single_trial_has_zero_std(self):
        stats = aggregate([outcome(3.0)])
        assert stats.std == 0.0 and stats.mean == 3.0 and stats.sr == 0.0

    def test_success_rate_follows_the_threshold(self):
        # sr counts what each run decided at its own threshold
        def cell(threshold):
            return [run_single("gbde", "F7", 2, max_fes=400, seed=s,
                               success_threshold=threshold) for s in range(4)]

        errors = sorted(o.final_error for o in cell(0.0))
        middle = (errors[1] + errors[2]) / 2
        assert errors[1] < middle < errors[2]  # so it splits the cell in two
        assert aggregate(cell(0.0)).sr == 0.0
        assert aggregate(cell(middle)).sr == 0.5
        assert aggregate(cell(errors[-1])).sr == 1.0

    @pytest.mark.parametrize("errors, mean, std", [
        ([math.inf, 1.0], math.inf, math.nan),
        ([math.inf, math.inf], math.inf, math.nan),
        ([1e308, 1e308], math.inf, math.inf),  # the sum overflows
        ([1e200, 1.0], 5e199, math.inf),  # the squared deviation overflows
    ])
    def test_a_nonfinite_statistic_comes_without_a_warning(self, errors, mean, std):
        # the values numpy gives, without its RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = aggregate([outcome(e, seed=i) for i, e in enumerate(errors)])
        assert (stats.mean, stats.std) == pytest.approx((mean, std), nan_ok=True)

    def test_rejects_mixed_cells(self):
        with pytest.raises(ValueError):
            aggregate([outcome(1.0, function="F1"), outcome(1.0, function="F2")])
        with pytest.raises(ValueError):
            aggregate([])


class TestRunExperiment:
    def test_seeds_are_base_plus_index(self):
        outs = run_experiment("gbde", "F7", 2, n_trials=3, max_fes=400, base_seed=10)
        assert [o.seed for o in outs] == [10, 11, 12]

    def test_parallel_matches_serial(self):
        serial = run_experiment("bip", "F2", 3, n_trials=6, max_fes=900,
                                base_seed=0, workers=1)
        threaded = run_experiment("bip", "F2", 3, n_trials=6, max_fes=900,
                                  base_seed=0, workers=4)
        assert [o.final_error for o in serial] == [o.final_error for o in threaded]
        assert [o.seed for o in serial] == [o.seed for o in threaded]

    def test_trials_run_on_the_calling_thread(self, monkeypatch):
        def no_threads(self):
            raise AssertionError("run_experiment started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        outs = run_experiment("gbde", "F7", 2, n_trials=3, max_fes=400,
                              base_seed=10, workers=4)
        assert [o.seed for o in outs] == [10, 11, 12]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_single("cmaes", "F7", 2, max_fes=100, seed=0)

    def test_unknown_override_key(self):
        with pytest.raises(ValueError):
            run_single("bip", "F7", 2, max_fes=100, seed=0,
                       overrides={"velocity": 2.0})

    def test_init_position_is_for_the_sampler_only(self):
        with pytest.raises(ValueError, match="unknown gbde options"):
            run_single("gbde", "F7", 2, max_fes=100, seed=0,
                       overrides={"init_position": (0.0, 0.0)})

    @pytest.mark.parametrize("key, value", [("seed", 5), ("success_threshold", 1e-2)])
    def test_overrides_may_not_set_what_has_its_own_argument(self, key, value):
        # each has one way in, so an override cannot disagree with its argument
        with pytest.raises(ValueError, match="pass seed and success_threshold"):
            run_single("gbde", "F7", 2, max_fes=2000, seed=0, success_threshold=0.0,
                       overrides={key: value})

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_negative_success_threshold_is_rejected(self, algorithm):
        with pytest.raises(ValueError, match="success_threshold"):
            run_single(algorithm, "F7", 2, max_fes=100, seed=0,
                       success_threshold=-1e-3)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_nan_success_threshold_is_rejected(self, algorithm):
        # RunScaffold refuses it for every run class: no error would ever reach it
        run_class = REGISTRY[algorithm]
        objective = BudgetedObjective(get_objective("F7", 2), max_fes=100)
        with pytest.raises(ValueError, match="success_threshold"):
            run_class(objective, success_threshold=math.nan)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_success_threshold_stops_every_algorithm(self, algorithm):
        # F7 at dim 1 is trivially solved to a loose threshold
        loose = run_single(algorithm, "F7", 1, max_fes=5000, seed=0,
                           success_threshold=1e3)
        assert loose.succeeded and loose.evals_used < 5000

    @pytest.mark.parametrize("algorithm, overrides", [
        ("bip", {"k": 4, "init_position": (0.5, -0.5)}), ("bbpso", {"np_": 5}),
        ("bbfwa", {"np_": 7}), ("gbde", {"np_": 6}),
    ])
    def test_the_outcome_names_the_config_it_ran_with(self, algorithm, overrides):
        out = run_single(algorithm, "F7", 2, max_fes=200, seed=3, overrides=overrides)
        assert out.config == build_config(algorithm, 3, overrides)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_outcome_shares_the_run_s_config_object(self, algorithm):
        config = build_config(algorithm, 3, None)
        objective = BudgetedObjective(get_objective("F7", 2), max_fes=200)
        assert REGISTRY[algorithm](objective, config).run().config is config


# every float setting of the four configs, by the algorithm whose config has it
FLOAT_SETTINGS = [("bip", "amplitude_a")]
# every population size of the four configs, with the least it allows
SIZE_SETTINGS = [("bip", "k", 2), ("bbpso", "np_", 2), ("bbfwa", "np_", 1), ("gbde", "np_", 4)]


class TestConfigSettings:
    def test_the_float_settings_are_all_listed(self):
        listed = {(algorithm, f.name) for algorithm in ALGORITHMS
                  for f in REGISTRY[algorithm].config_class.__dataclass_fields__.values()
                  if f.type.startswith("float")}
        assert listed == set(FLOAT_SETTINGS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("algorithm, field", FLOAT_SETTINGS)
    def test_a_nonfinite_float_setting_is_refused_by_name(self, algorithm, field, value):
        with pytest.raises(ValueError, match=field):
            REGISTRY[algorithm].config_class(**{field: value})

    def test_the_size_settings_are_all_listed(self):
        listed = {(algorithm, f.name) for algorithm in ALGORITHMS
                  for f in REGISTRY[algorithm].config_class.__dataclass_fields__.values()
                  if f.type == "int" and f.name != "seed"}
        assert listed == {(algorithm, field) for algorithm, field, _ in SIZE_SETTINGS}

    @pytest.mark.parametrize("algorithm, field, least", SIZE_SETTINGS)
    def test_a_size_below_its_least_is_refused_by_name(self, algorithm, field, least):
        config_class = REGISTRY[algorithm].config_class
        assert getattr(config_class(**{field: least}), field) == least
        with pytest.raises(ValueError, match=f"{field} must be at least {least}"):
            config_class(**{field: least - 1})

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_configs_hold_no_success_threshold(self, algorithm):
        # the threshold is the run's, a keyword of the run class
        assert "success_threshold" not in REGISTRY[algorithm].config_class.__dataclass_fields__


class TestRanking:
    def build(self, means):
        stats = {}
        for algo, row in means.items():
            for j, m in enumerate(row, start=1):
                stats[(algo, f"F{j}")] = m
        return stats

    def test_reproduces_printed_multimodal_ranks(self):
        stats = self.build(PRINTED_MEANS_MULTI)
        table = rank_algorithms(stats, group=[f"F{j}" for j in range(1, 7)])
        assert table["average_rank"]["bip"] == pytest.approx(3.17, abs=0.005)
        assert table["average_rank"]["bbpso"] == pytest.approx(2.50, abs=0.005)
        assert table["average_rank"]["bbfwa"] == pytest.approx(3.17, abs=0.005)
        assert table["average_rank"]["gbde"] == pytest.approx(1.17, abs=0.005)

    def test_reproduces_printed_unimodal_ranks(self):
        stats = self.build(PRINTED_MEANS_UNI)
        table = rank_algorithms(stats, group=[f"F{j}" for j in range(1, 7)])
        assert table["average_rank"]["bip"] == pytest.approx(2.17, abs=0.005)
        assert table["average_rank"]["bbpso"] == pytest.approx(1.50, abs=0.005)
        assert table["average_rank"]["bbfwa"] == pytest.approx(3.67, abs=0.005)
        assert table["average_rank"]["gbde"] == pytest.approx(2.67, abs=0.005)

    def test_exact_ties_share_averaged_ranks(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 1.0, ("c", "F1"): 2.0}
        table = rank_algorithms(stats, group=["F1"])
        assert table["ranks"]["F1"] == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_nan_ranks_after_inf_and_the_nans_tie(self):
        stats = {("a", "F1"): math.nan, ("b", "F1"): math.inf,
                 ("c", "F1"): 1.0, ("d", "F1"): math.nan}
        table = rank_algorithms(stats, group=["F1"])
        assert table["ranks"]["F1"] == {"a": 3.5, "b": 2.0, "c": 1.0, "d": 3.5}
        assert table["average_rank"] == table["ranks"]["F1"]

    def test_missing_cell_raises(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 2.0, ("a", "F2"): 1.0}
        with pytest.raises(ValueError):
            rank_algorithms(stats, group=["F1", "F2"])

    def test_the_ranking_is_the_json_it_is_written_as(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 2.0, ("a", "F2"): 3.0, ("b", "F2"): 0.5}
        table = rank_algorithms(stats, group=("F1", "F2"))
        assert json.loads(json.dumps(table)) == table == {
            "algorithms": ["a", "b"], "functions": ["F1", "F2"],
            "ranks": {"F1": {"a": 1.0, "b": 2.0}, "F2": {"a": 2.0, "b": 1.0}},
            "average_rank": {"a": 1.5, "b": 1.5}}

    def test_rank_cells_ranks_one_dimension_by_the_aggregate_mean(self):
        cells = {("a", "F1", 2): [outcome(1.0), outcome(3.0)],
                 ("b", "F1", 2): [outcome(2.5)],
                 ("a", "F1", 3): [outcome(9.0, dim=3)],
                 ("b", "F1", 3): [outcome(1.0, dim=3)]}
        assert rank_cells(cells, 2, ["F1"])["ranks"] == {"F1": {"a": 1.0, "b": 2.0}}
        assert rank_cells(cells, 3, ["F1"])["ranks"] == {"F1": {"a": 2.0, "b": 1.0}}
        with pytest.raises(ValueError, match="no means to rank"):
            rank_cells(cells, 4, ["F1"])

    def test_function_groups_cover_the_table(self):
        assert FUNCTION_GROUPS == {"multimodal": ("F1", "F2", "F3", "F4", "F5", "F6"),
                                   "unimodal": ("F7", "F8", "F9", "F10", "F11", "F12")}
        assert ALGORITHMS == ("bip", "bbpso", "bbfwa", "gbde")


class TestTrialsCsv:
    def test_round_trip(self, tmp_path):
        outs = run_experiment("bbpso", "F7", 2, n_trials=3, max_fes=300, base_seed=5)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, outs)
        rows = read_trials_csv(path)
        assert len(rows) == 3
        # an outcome of the columns alone: no config, error trace or best point
        for row, o in zip(rows, outs):
            assert row == TrialOutcome(**{c: getattr(o, c) for c in TRIAL_CSV_COLUMNS})
            assert row.config is None and row.error_trace == [] and row.best_position is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        outs = run_experiment("gbde", "F2", 2, n_trials=2, max_fes=250, base_seed=0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(a, outs)
        write_trials_csv(b, outs)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_error_survives_the_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trials_csv(path, [outcome(math.nan, succeeded=False)])
        row = read_trials_csv(path)[0]
        assert math.isnan(row.final_error) and row.succeeded is False

    def test_a_succeeded_field_other_than_true_or_false_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trials_csv(path, [outcome(1.0), outcome(1e-9)])
        text = path.read_text().replace("false", "FALSE").replace("true", "maybe")
        path.write_text(text)
        with pytest.raises(ValueError, match="line 3: succeeded must be true or false"):
            read_trials_csv(path)
        path.write_text(text.replace("maybe", " True"))
        assert [r.succeeded for r in read_trials_csv(path)] == [False, True]

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in [("a,b,c\n1,2,3\n", "line 1"), ("", "bad.csv: empty file")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                read_trials_csv(path)

    def test_malformed_row_names_its_line(self, tmp_path):
        good = tmp_path / "good.csv"
        write_trials_csv(good, [outcome(1.0)])
        bad = tmp_path / "bad.csv"
        for row, message in [("bip,F7,2,oops,1.0,100,true", "line 3"),
                             ("bip,F7,2,1.0,100,true", "line 3: expected 7 fields, got 6")]:
            bad.write_text(good.read_text() + row + "\n")
            with pytest.raises(ValueError, match=message):
                read_trials_csv(bad)


class TestSummaryDict:
    def test_schema_and_cells(self):
        outs = run_experiment("gbde", "F7", 2, n_trials=2, max_fes=200, base_seed=0)
        summary = summary_dict({("gbde", "F7", 2): outs}, {}, success_threshold=1e-8,
                               max_fes=200, n_trials=2, base_seed=0)
        assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION == 1
        assert summary["n_trials"] == 2 and summary["max_fes"] == 200
        (cell,) = summary["cells"]
        assert cell["algorithm"] == "gbde" and cell["function"] == "F7"
        assert cell["max_fes"] == 200
        stats = asdict(aggregate(outs))
        assert {k: cell[k] for k in stats} == stats
        defaults = asdict(GbdeConfig())
        del defaults["seed"]  # each trial's own
        assert cell["config"] == defaults
        assert list(cell) == ["algorithm", "function", "dim", "max_fes", *stats, "config"]
