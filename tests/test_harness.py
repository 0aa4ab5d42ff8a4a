"""Tests for the experiment harness: trials, statistics, ranking, files."""

import math

import numpy as np
import pytest

from bareopt.harness import (
    ALGORITHMS,
    MULTIMODAL_FUNCTIONS,
    SUMMARY_SCHEMA_VERSION,
    UNIMODAL_FUNCTIONS,
    AggregateStats,
    aggregate,
    rank_algorithms,
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
        outs = [outcome(1e-7), outcome(1e-9)]
        assert aggregate(outs, success_threshold=1e-8).sr == 0.5
        assert aggregate(outs, success_threshold=1e-6).sr == 1.0

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

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_single("cmaes", "F7", 2, max_fes=100, seed=0)

    def test_unknown_override_key(self):
        with pytest.raises(ValueError):
            run_single("bip", "F7", 2, max_fes=100, seed=0,
                       overrides={"velocity": 2.0})

    def test_init_position_is_for_the_sampler_only(self):
        with pytest.raises(ValueError):
            run_single("gbde", "F7", 2, max_fes=100, seed=0,
                       init_position=(0.0, 0.0))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_negative_success_threshold_is_rejected(self, algorithm):
        with pytest.raises(ValueError, match="success_threshold"):
            run_single(algorithm, "F7", 2, max_fes=100, seed=0,
                       success_threshold=-1e-3)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_success_threshold_stops_every_algorithm(self, algorithm):
        # F7 at dim 1 is trivially solved to a loose threshold
        loose = run_single(algorithm, "F7", 1, max_fes=5000, seed=0,
                           success_threshold=1e3)
        assert loose.succeeded and loose.evals_used < 5000


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
        assert table.average["bip"] == pytest.approx(3.17, abs=0.005)
        assert table.average["bbpso"] == pytest.approx(2.50, abs=0.005)
        assert table.average["bbfwa"] == pytest.approx(3.17, abs=0.005)
        assert table.average["gbde"] == pytest.approx(1.17, abs=0.005)

    def test_reproduces_printed_unimodal_ranks(self):
        stats = self.build(PRINTED_MEANS_UNI)
        table = rank_algorithms(stats, group=[f"F{j}" for j in range(1, 7)])
        assert table.average["bip"] == pytest.approx(2.17, abs=0.005)
        assert table.average["bbpso"] == pytest.approx(1.50, abs=0.005)
        assert table.average["bbfwa"] == pytest.approx(3.67, abs=0.005)
        assert table.average["gbde"] == pytest.approx(2.67, abs=0.005)

    def test_exact_ties_share_averaged_ranks(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 1.0, ("c", "F1"): 2.0}
        table = rank_algorithms(stats, group=["F1"])
        assert table.ranks["F1"] == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_accepts_aggregate_stats_values(self):
        stats = {
            ("a", "F1"): AggregateStats(best=0.0, mean=1.0, std=0.0, sr=1.0, n_trials=2),
            ("b", "F1"): AggregateStats(best=0.0, mean=2.0, std=0.0, sr=0.0, n_trials=2),
        }
        table = rank_algorithms(stats, group=["F1"])
        assert table.ranks["F1"] == {"a": 1.0, "b": 2.0}

    def test_missing_cell_raises(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 2.0, ("a", "F2"): 1.0}
        with pytest.raises(ValueError):
            rank_algorithms(stats, group=["F1", "F2"])

    def test_as_dict_round_trip(self):
        stats = {("a", "F1"): 1.0, ("b", "F1"): 2.0}
        d = rank_algorithms(stats, group=["F1"]).as_dict()
        assert d["average_rank"] == {"a": 1.0, "b": 2.0}
        assert d["algorithms"] == ["a", "b"]

    def test_function_groups_cover_the_table(self):
        assert MULTIMODAL_FUNCTIONS == ("F1", "F2", "F3", "F4", "F5", "F6")
        assert UNIMODAL_FUNCTIONS == ("F7", "F8", "F9", "F10", "F11", "F12")
        assert ALGORITHMS == ("bip", "bbpso", "bbfwa", "gbde")


class TestTrialsCsv:
    def test_round_trip(self, tmp_path):
        outs = run_experiment("bbpso", "F7", 2, n_trials=3, max_fes=300, base_seed=5)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, outs)
        rows = read_trials_csv(path)
        assert len(rows) == 3
        for row, o in zip(rows, outs):
            assert row["algorithm"] == "bbpso" and row["function"] == "F7"
            assert row["dim"] == 2 and row["seed"] == o.seed
            assert row["final_error"] == o.final_error
            assert row["evals_used"] == o.evals_used
            assert row["succeeded"] == o.succeeded

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
        assert math.isnan(row["final_error"]) and row["succeeded"] is False

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="line 1"):
            read_trials_csv(path)

    def test_malformed_row_names_its_line(self, tmp_path):
        good = tmp_path / "good.csv"
        write_trials_csv(good, [outcome(1.0)])
        text = good.read_text().splitlines()
        text.append("bip,F7,2,oops,1.0,100,true")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trials_csv(bad)


class TestSummaryDict:
    def test_schema_and_cells(self):
        outs = run_experiment("gbde", "F7", 2, n_trials=2, max_fes=200, base_seed=0)
        stats = {("gbde", "F7", 2): aggregate(outs)}
        summary = summary_dict(stats, success_threshold=1e-8, max_fes=200,
                               n_trials=2, base_seed=0)
        assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION == 1
        assert summary["n_trials"] == 2 and summary["max_fes"] == 200
        (cell,) = summary["cells"]
        assert cell["algorithm"] == "gbde" and cell["function"] == "F7"
        assert {"best", "mean", "std", "sr", "n_trials"} <= set(cell)
