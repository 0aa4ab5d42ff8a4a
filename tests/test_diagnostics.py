"""Tests for run diagnostics: logs, position density, traces, exports."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bareopt.benchmarks import get_objective
from bareopt.bip import tunneling_probability
from bareopt.diagnostics import (
    TrajectoryLog,
    diagnostics_basename,
    expected_solution_value,
    export_events_csv,
    export_histogram_json,
    export_trace_json,
    record_run,
    transmission_trace,
    wave_modulus,
)
from bareopt.records import (
    ACCEPT_BETTER,
    ACCEPT_TUNNEL,
    EVENT_KINDS,
    INIT,
    MEAN_REPLACE,
    REJECT,
    SCALE_HALVE,
    EventBatch,
)

SETS_POSITION = (INIT, ACCEPT_BETTER, ACCEPT_TUNNEL, MEAN_REPLACE)


def replay_best(log):
    """Best-so-far fitness after every evaluation, reconstructed from the log.

    Covers every evaluated point, including rejected candidates (which can
    never beat the incumbent, but belong to the evaluation count).
    """
    evaluated = log.events.column("kind") != SCALE_HALVE
    # fmin passes over a NaN fitness, as a `fitness < best` test would
    best = np.fmin.accumulate(
        np.concatenate(([math.inf], log.events.column("fitness")[evaluated])))
    return list(zip(log.events.column("index")[evaluated].tolist(), best[1:].tolist()))


def synthetic_log(points, dim=2, low=-4.0, high=4.0, amplitude=1.0):
    """A log whose accepted positions are exactly ``points``."""
    log = TrajectoryLog(
        algorithm="bip", function="synthetic", dim=dim, seed=0,
        lower_bound=np.full(dim, low), upper_bound=np.full(dim, high),
        optimum_value=0.0, amplitude=amplitude,
    )
    m = len(points)
    log.events.add(EventBatch(
        index=np.arange(1, m + 1), particle=np.arange(m) % 5, kind=np.full(m, INIT),
        delta_f=np.zeros(m), delta_x=np.zeros(m), gamma=1.0, sigma=1.0,
        probability=np.ones(m), position=np.asarray(points, dtype=float).reshape(m, dim),
        fitness=np.arange(m, dtype=float),
    ))
    return log


class TestRecordRun:
    def test_one_record_per_evaluation_at_most(self):
        out, log = record_run("bip", "F7", 3, max_fes=500, seed=0)
        position_bearing = log.events.column("kind") != SCALE_HALVE
        assert np.count_nonzero(position_bearing) == out.evals_used <= 500

    def test_figure_protocol_replays_its_setup(self):
        out, log = record_run(
            "bip", "double_well", 2, max_fes=200, seed=0,
            overrides={"k": 5}, init_position=(2.0, 2.0),
        )
        assert log.algorithm == "bip" and log.function == "double_well"
        assert log.dim == 2 and log.seed == 0 and log.amplitude == 1.0
        assert np.all(log.lower_bound == -4.0) and np.all(log.upper_bound == 4.0)
        inits = np.concatenate([b.position[b.kind == INIT] for b in log.events.batches
                                if b.position is not None])
        assert len(inits) == 5
        for x in inits:
            assert np.array_equal(x, [2.0, 2.0])
        assert out.evals_used == 200

    def test_disabled_tunneling_never_tunnels(self):
        _, log = record_run(
            "bip", "double_well", 2, max_fes=200, seed=0,
            overrides={"k": 5, "amplitude_a": 0.0}, init_position=(2.0, 2.0),
        )
        assert log.amplitude == 0.0
        assert np.all(log.events.column("kind") != ACCEPT_TUNNEL)
        assert transmission_trace(log) == []

    def test_baseline_runs_are_recordable(self):
        out, log = record_run("gbde", "F7", 2, max_fes=300, seed=1)
        assert log.amplitude == 0.0
        assert len(log.events) == out.evals_used

    def test_final_population_tracks_last_accepted_move(self):
        _, log = record_run("bip", "F7", 2, max_fes=400, seed=2,
                            overrides={"k": 4})
        particles, positions, fitness = log.final_population()
        assert set(particles.tolist()) == {0, 1, 2, 3}
        # each particle's last row of a kind that sets its position, walking
        # the batches in order
        later = {}
        for b in log.events.batches:
            for r in np.flatnonzero(np.isin(b.kind, SETS_POSITION)):
                later[int(b.particle[r])] = (b.position[r], b.fitness[r])
        assert list(later) == particles.tolist()
        for (x, f), got_x, got_f in zip(later.values(), positions, fitness):
            np.testing.assert_equal(got_x, x)
            assert got_f == f

    def test_iterated_rows_name_the_kind_column(self):
        # bench's log check counts evaluations by iterating the log
        _, log = record_run("bip", "F7", 2, max_fes=300, seed=0, overrides={"k": 4})
        kinds = [e.kind for e in log.events]
        assert len(kinds) == len(log.events) > 300  # scale-halve markers included
        assert kinds == [EVENT_KINDS[k] for k in log.events.column("kind").tolist()]


class TestWaveModulus:
    def test_delta_distribution(self):
        log = synthetic_log([[1.0, 1.0]] * 40)
        hist = wave_modulus(log, bins_per_dim=50)
        cell_volume = (8.0 / 50) ** 2
        assert hist.counts.sum() == 40
        assert hist.normalized.max() == pytest.approx(1.0 / cell_volume)
        assert np.count_nonzero(hist.counts) == 1

    def test_normalizes_to_unit_integral(self):
        rng = np.random.default_rng(0)
        log = synthetic_log(rng.uniform(-4, 4, size=(3000, 2)))
        hist = wave_modulus(log, bins_per_dim=20)
        cell_volume = (8.0 / 20) ** 2
        assert float(hist.normalized.sum()) * cell_volume == pytest.approx(1.0, abs=1e-12)

    def test_uniform_positions_are_roughly_flat(self):
        rng = np.random.default_rng(1)
        log = synthetic_log(rng.uniform(-4, 4, size=(10_000, 2)))
        hist = wave_modulus(log, bins_per_dim=10)
        assert hist.counts.max() / hist.counts.min() < 2.0

    def test_mode_cell_and_bounds(self):
        log = synthetic_log([[-2.0245, -2.0245]] * 10 + [[3.0, 3.0]])
        hist = wave_modulus(log, bins_per_dim=50)
        mode = hist.mode_cell()
        assert hist.cell_contains(mode, [-2.0245, -2.0245])
        assert not hist.cell_contains(mode, [3.0, 3.0])
        (xlo, xhi), (ylo, yhi) = hist.cell_bounds(mode)
        assert xlo <= -2.0245 <= xhi and ylo <= -2.0245 <= yhi

    def test_high_dimensions_fall_back_to_marginals(self):
        rng = np.random.default_rng(2)
        log = synthetic_log(rng.uniform(-4, 4, size=(500, 3)), dim=3)
        hist = wave_modulus(log, bins_per_dim=12)
        assert hist.marginal and hist.counts.shape == (3, 12)
        widths = [e[1] - e[0] for e in hist.edges]
        for d in range(3):
            assert float(hist.normalized[d].sum()) * widths[d] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            hist.mode_cell()

    def test_rejected_positions_are_excluded(self):
        log = synthetic_log([[0.0, 0.0]] * 5)
        log.events.add(EventBatch(
            index=np.array([6]), particle=np.array([0]), kind=np.array([REJECT]),
            delta_f=np.ones(1), delta_x=np.ones(1), gamma=1.0, sigma=1.0,
            probability=np.array([0.1]), position=np.array([[3.0, 3.0]]),
            fitness=np.array([9.0]),
        ))
        hist = wave_modulus(log, bins_per_dim=4)
        assert hist.counts.sum() == 5

    def test_invalid_arguments(self):
        log = synthetic_log([[0.0, 0.0]])
        with pytest.raises(ValueError):
            wave_modulus(log, bins_per_dim=0)
        empty = synthetic_log([])
        with pytest.raises(ValueError):
            wave_modulus(empty)


class TestTransmissionTrace:
    def test_probabilities_recompute_from_logged_fields(self):
        _, log = record_run("bip", "F7", 3, max_fes=2000, seed=3)
        trace = transmission_trace(log)
        assert trace, "expected tunneling decisions on a hot start"
        decided = np.flatnonzero(np.isin(log.events.column("kind"), (ACCEPT_TUNNEL, REJECT)))
        traced = dict(zip(log.events.column("index")[decided].tolist(), decided.tolist()))
        delta_f, delta_x = log.events.column("delta_f"), log.events.column("delta_x")
        gamma = np.concatenate([np.full(len(b), b.gamma) for b in log.events.batches])
        for idx, prob in trace:
            r = traced[idx]
            assert prob == log.events.column("probability")[r]
            if gamma[r] > 0:
                assert prob == pytest.approx(
                    tunneling_probability(delta_f[r], delta_x[r], gamma[r], 1.0),
                    rel=1e-12,
                )

    def test_indices_are_ordered(self):
        _, log = record_run("bip", "F2", 2, max_fes=1500, seed=4)
        trace = transmission_trace(log)
        indices = [i for i, _ in trace]
        assert indices == sorted(indices)


class TestSummaries:
    def test_expected_solution_value_matches_population_mean(self):
        _, log = record_run("bip", "F7", 2, max_fes=600, seed=5)
        esv = expected_solution_value(log)
        held = np.isin(log.events.column("kind"), SETS_POSITION)
        particle = log.events.column("particle")[held]
        fitness = log.events.column("fitness")[held]
        last = [np.flatnonzero(particle == i)[-1] for i in np.unique(particle)]
        assert esv == pytest.approx(np.mean(fitness[last]), rel=1e-12)
        _, _, final_fitness = log.final_population()
        assert np.array_equal(np.sort(final_fitness), np.sort(fitness[last]))

    def test_expected_solution_value_against_objective(self):
        _, log = record_run("bip", "F7", 2, max_fes=600, seed=5)
        spec = get_objective("F7", 2)
        esv_fresh = spec.evaluate_many(log.final_population()[1]).mean()
        assert esv_fresh == pytest.approx(expected_solution_value(log), rel=1e-9)

    def test_converged_run_has_a_small_population_mean(self):
        _, log = record_run("bip", "F7", 10, max_fes=50_000, seed=0,
                            success_threshold=1e-8)
        assert expected_solution_value(log) < 1e-4

    def test_replay_best_matches_the_error_trace(self):
        out, log = record_run("bip", "F2", 3, max_fes=900, seed=6)
        replay = replay_best(log)
        assert len(replay) == out.evals_used
        best_by_index = dict(replay)
        optimum = log.optimum_value
        for idx, err in out.error_trace:
            assert max(best_by_index[idx] - optimum, 0.0) == pytest.approx(err, abs=1e-12)
        fits = [f for _, f in replay]
        assert all(b <= a for a, b in zip(fits, fits[1:]))


class TestExports:
    def test_events_csv_layout(self, tmp_path):
        _, log = record_run("bip", "F7", 2, max_fes=60, seed=7, overrides={"k": 4})
        path = tmp_path / (diagnostics_basename("bip", "F7", 2, 7) + "_events.csv")
        export_events_csv(log, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "evaluation_index", "particle_index", "event", "delta_f", "delta_x",
            "gamma", "sigma", "probability_used", "fitness", "pos_0", "pos_1",
        ]
        assert len(rows) == 1 + len(log.events)
        first = rows[1]
        assert first[2] == "init" and float(first[9]) == pytest.approx(
            log.events.batches[0].position[0, 0]
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), st.lists(
        st.tuples(st.integers(0, 6), st.floats(), st.floats(), st.booleans()).flatmap(
            lambda b: st.tuples(st.just(b), arrays(np.float64, (b[0], 4 + dim)),
                                arrays(np.int64, b[0], elements=st.integers(0, 4)))),
        max_size=6))))
    def test_events_csv_matches_the_csv_module(self, tmp_path_factory, case):
        # the export before the columnar log: csv.writer over every row, with
        # str() of each float
        dim, batches = case
        log = synthetic_log([], dim=dim)
        for (m, gamma, sigma, halve), values, kinds in batches:
            log.events.add(EventBatch(
                index=np.arange(len(log.events), len(log.events) + m),
                particle=np.arange(m) - halve,
                kind=np.full(m, SCALE_HALVE) if halve else kinds,
                delta_f=values[:, 0], delta_x=values[:, 1], gamma=gamma, sigma=sigma,
                probability=values[:, 2], position=None if halve else values[:, 4:],
                fitness=values[:, 3],
            ))
        path = tmp_path_factory.mktemp("csv")
        export_events_csv(log, path / "columns.csv")
        with (path / "events.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "evaluation_index", "particle_index", "event", "delta_f", "delta_x",
                "gamma", "sigma", "probability_used", "fitness",
                *(f"pos_{d}" for d in range(dim)),
            ])
            for b in log.events.batches:
                for r in range(len(b)):
                    pos = [""] * dim if b.position is None else [str(v) for v in b.position[r]]
                    writer.writerow([
                        b.index[r], b.particle[r], EVENT_KINDS[b.kind[r]],
                        str(b.delta_f[r].item()), str(b.delta_x[r].item()),
                        str(b.gamma), str(b.sigma), str(b.probability[r].item()),
                        str(b.fitness[r].item()), *pos,
                    ])
        assert (path / "columns.csv").read_bytes() == (path / "events.csv").read_bytes()

    def test_histogram_json_round_trip(self, tmp_path):
        log = synthetic_log([[0.0, 0.0]] * 9)
        hist = wave_modulus(log, bins_per_dim=5)
        path = tmp_path / "hist.json"
        export_histogram_json(hist, path, meta={"function": "synthetic"})
        payload = json.loads(path.read_text())
        assert payload["function"] == "synthetic"
        assert payload["marginal"] is False
        assert np.asarray(payload["counts"]).sum() == 9

    def test_trace_json_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        export_trace_json([(3, 0.5), (9, 0.25)], path, meta={"seed": 1})
        payload = json.loads(path.read_text())
        assert payload["trace"] == [[3, 0.5], [9, 0.25]] and payload["seed"] == 1

    def test_basename_format(self):
        assert diagnostics_basename("bip", "F7", 10, 3) == "bip_F7_10d_seed3"
