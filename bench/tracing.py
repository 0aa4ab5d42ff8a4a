"""Spans around the calls into each bareopt layer, and the metrics they give.

``installed(tracer)`` swaps wrapped versions of the layer entry points into
the modules and classes that look them up at call time, so the package
itself is unchanged.  A span is (name, start, end, parent span, trial id,
work); spans live in flat arrays and are written out once, after the run.
A layer's self time is its span minus the direct child spans inside it.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np
from bareopt import baselines, benchmarks, bip, diagnostics, harness, records

_BASELINE_RUNS = {"bbpso": baselines.BbpsoRun, "bbfwa": baselines.BbfwaRun,
                  "gbde": baselines.GbdeRun}


def _points(args, result):
    return len(result)


def _size(args, result):
    return np.size(result)


def _evals(args, result):
    return result.evals_used


def _events(args, result):
    return len(result[1].events)


# (owner, attribute, span name, work counter).  A function imported by name
# into several modules is patched in each of them under one span name.
TARGETS = (
    (benchmarks.BudgetedObjective, "evaluate_many", "benchmarks.evaluate_many", _points),
    (bip.BipRun, "step", "bip.step", None),
    (bip, "gaussian_step", "bip.gaussian_step", None),
    (bip, "tunneling_probability", "bip.tunneling_probability", _size),
    (bip, "anneal_gamma", "bip.anneal_gamma", None),
    (bip, "ground_state_reached", "bip.ground_state_reached", None),
    (bip.BipRun, "_transition_scale", "bip.transition", None),
    *((cls, "step", f"baselines.{name}.step", None) for name, cls in _BASELINE_RUNS.items()),
    (records.ErrorTrace, "extend", "records.trace_extend", None),
    (bip, "build_outcome", "records.build_outcome", None),
    (baselines, "build_outcome", "records.build_outcome", None),
    (harness, "run_single", "harness.run_single", _evals),
    (diagnostics, "run_single", "harness.run_single", _evals),
    (harness, "run_experiment", "harness.run_experiment", None),
    (diagnostics, "record_run", "diagnostics.record_run", _events),
    (diagnostics, "wave_modulus", "diagnostics.wave_modulus", None),
    (diagnostics, "transmission_trace", "diagnostics.transmission_trace", None),
    (diagnostics, "export_events_csv", "diagnostics.export_events_csv", None),
)


class Tracer:
    """In-memory span store.  Set ``trial`` before each trial."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial_of = array("i")
        self.work = array("d")
        self.trial = -1
        self._open = [-1]

    def wrap(self, span_name, fn, work=None):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.trial_of.append(self.trial)
            self.end.append(0.0)
            self.work.append(0.0)
            self._open.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._open.pop()
            if work is not None:
                self.work[i] = work(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial_of, dtype=np.int64),
            "work": np.array(self.work),
        }


@contextmanager
def installed(tracer: Tracer):
    """Route the layer entry points through ``tracer`` inside the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, span_name, work), (_, _, original) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(span_name, original, work))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    nested = spans["parent"] >= 0
    np.add.at(child, spans["parent"][nested], dur[nested])
    return dur - child


def _spans_of(tracer: Tracer, trials: list[dict]):
    """Span arrays, their self times, and which trial ids are plain runs."""
    spans = tracer.arrays()
    return spans, self_times(spans), np.array([t["plain"] for t in trials], dtype=bool)


def layer_metrics(tracer: Tracer, trials: list[dict], cell_labels,
                  untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from the spans of the traced replay.

    ``trials`` describes each trial id: its cell ``label``, and ``plain``
    for the callback-free runs that serve only as the base of
    ``diagnostics.capture_ratio``.  Every other metric counts the main
    trials only.  Counts are per main trial, times are per call.
    """
    spans, own, plain = _spans_of(tracer, trials)
    dur = spans["end"] - spans["start"]
    labels = np.array([t["label"] for t in trials])
    main = ~plain[spans["trial"]]
    n_main = max(int((~plain).sum()), 1)

    def sel(span_name, mask=main):
        if span_name not in tracer.names:
            return np.zeros(len(own), dtype=bool)
        return mask & (spans["name"] == tracer.names.index(span_name))

    def calls(span_name):
        return int(sel(span_name).sum())

    def per_call(span_name, values, scale=1.0):
        m = sel(span_name)
        return float(values[m].sum() / m.sum() * scale) if m.any() else 0.0

    out = {}
    for layer in ("benchmarks.evaluate_many", "bip.step", "bip.ground_state_reached",
                  "records.trace_extend",
                  *(f"baselines.{a}.step" for a in _BASELINE_RUNS)):
        out[f"{layer}.calls"] = calls(layer) / n_main
    for layer in ("benchmarks.evaluate_many", "bip.step", "bip.gaussian_step",
                  "bip.tunneling_probability", "bip.anneal_gamma",
                  "bip.ground_state_reached", "records.trace_extend",
                  "records.build_outcome", "harness.run_single",
                  *(f"baselines.{a}.step" for a in _BASELINE_RUNS)):
        out[f"{layer}.self_us"] = per_call(layer, own, 1e6)
    for layer in ("harness.run_experiment", "diagnostics.export_events_csv",
                  "diagnostics.wave_modulus", "diagnostics.transmission_trace"):
        out[f"{layer}.self_ms"] = per_call(layer, own, 1e3)
    out["benchmarks.evaluate_many.points_per_call"] = per_call(
        "benchmarks.evaluate_many", spans["work"])
    out["bip.tunneling_probability.elements"] = per_call(
        "bip.tunneling_probability", spans["work"])
    out["bip.transition.calls"] = calls("bip.transition") / n_main
    checks = calls("bip.ground_state_reached")
    out["bip.collapse.hit_ratio"] = calls("bip.transition") / checks if checks else 0.0

    recorded = sel("diagnostics.record_run")
    events = float(spans["work"][recorded].sum())
    out["diagnostics.events"] = events / recorded.sum() if recorded.any() else 0.0
    record_trials = np.isin(spans["trial"], np.unique(spans["trial"][recorded]))
    evals = float(spans["work"][sel("harness.run_single", main & record_trials)].sum())
    out["diagnostics.events_per_eval"] = events / evals if evals else 0.0
    plain_runs = sel("harness.run_single", plain[spans["trial"]])
    out["diagnostics.capture_ratio"] = (
        float(dur[recorded].sum() / dur[plain_runs].sum()) if plain_runs.any() else 0.0)

    singles = sel("harness.run_single")
    for label in cell_labels:
        m = singles & (labels[spans["trial"]] == label)
        wall = float(dur[m].sum())
        out[f"harness.cell.{label}.evals_per_s"] = (
            float(spans["work"][m].sum()) / wall if wall else 0.0)
    out["tracing.overhead_ratio"] = traced_wall / untraced_wall
    return out


def self_time_shares(tracer: Tracer, trials: list[dict]) -> dict:
    """Share of the main trials' traced wall time spent in each layer's own code."""
    spans, own, plain = _spans_of(tracer, trials)
    main = ~plain[spans["trial"]]
    top = main & (spans["parent"] < 0)
    total = float((spans["end"] - spans["start"])[top].sum())
    shares = {}
    for nid, span_name in enumerate(tracer.names):
        m = main & (spans["name"] == nid)
        if m.any():
            shares[span_name] = float(own[m].sum()) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
