"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Desk-scale protocols throughout: dim 10, 20 seeded trials, budgets of
50k/100k evaluations.  Two criteria are out of reach for the algorithms as
specified: criterion 1 (unimodal success rates) and criterion 6 (density
concentration on the global well).  Their tests fail by design rather than
being weakened, and each failure message carries the measured numbers.
"""

import math
import sys

import numpy as np
import pytest

from bareopt.benchmarks import BudgetedObjective, get_objective
from bareopt.bip import (
    BipConfig,
    BipRun,
    accept_moves,
    gaussian_step,
    tunneling_probability,
)
from bareopt.diagnostics import record_run, transmission_trace, wave_modulus
from bareopt.harness import aggregate, rank_algorithms, run_experiment, run_single
from bareopt.records import (
    ACCEPT_BETTER,
    ACCEPT_TUNNEL,
    MEAN_REPLACE,
    REJECT,
    SCALE_HALVE,
    EventLog,
)

DIM = 10
TRIALS = 20
BUDGET = 50_000


def success_count(algorithm, function, threshold, *, max_fes=BUDGET):
    outs = run_experiment(algorithm, function, DIM, n_trials=TRIALS,
                          max_fes=max_fes, base_seed=0,
                          success_threshold=threshold)
    return sum(o.final_error < threshold for o in outs)


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


class TestCriterion1UnimodalSuccess:
    def test_sphere_and_sum_squares_success_rates(self):
        clauses = []
        for algo in ("bip", "bbpso", "gbde"):
            for fn in ("F7", "F8"):
                n = success_count(algo, fn, 1e-8)
                clauses.append((f"{algo}/{fn} <1e-8: {n}/{TRIALS}", n >= 19))
        for fn in ("F7", "F8"):
            n = success_count("bbfwa", fn, 1e-6)
            clauses.append((f"bbfwa/{fn} <1e-6: {n}/{TRIALS}", n >= 19))
        detail = "; ".join(text for text, _ in clauses)
        ok = all(passed for _, passed in clauses)
        line = report(1, ok, detail)
        assert ok, line


class TestCriterion2ShiftedOptimum:
    def test_ellipsoidal_is_not_origin_biased(self):
        n = success_count("bip", "F10", 1e-8)
        ok = n >= 19
        line = report(2, ok, f"bip/F10 <1e-8: {n}/{TRIALS}")
        assert ok, line


class TestCriterion3MultimodalOrdering:
    def test_gbde_outranks_the_sampler_on_multimodal_functions(self):
        group = ("F1", "F2", "F3", "F4")
        stats = {}
        for algo in ("bip", "gbde"):
            for fn in group:
                outs = run_experiment(algo, fn, DIM, n_trials=TRIALS,
                                      max_fes=100_000, base_seed=0)
                stats[(algo, fn)] = aggregate(outs).mean
        table = rank_algorithms(stats, group=group)
        gbde, bip = table["average_rank"]["gbde"], table["average_rank"]["bip"]
        ok = gbde < bip
        line = report(3, ok, f"average rank gbde={gbde:.2f} vs bip={bip:.2f}")
        assert ok, line


class TestCriterion4RankingFixture:
    MULTI = {
        "bip":   [2.66e-03, 1.50e+02, 4.92e-01, 3.78e-01, 2.31e+01, 7.78e+03],
        "bbpso": [1.14e-02, 5.23e+01, 8.85e-01, 3.30e+00, 9.24e-13, 3.05e+03],
        "bbfwa": [1.18e-02, 9.97e+01, 1.64e-01, 1.04e+01, 1.79e+00, 4.94e+03],
        "gbde":  [2.18e-18, 2.69e+00, 7.99e-15, 1.50e-32, 1.04e-06, 2.02e+02],
    }
    UNI = {
        "bip":   [6.28e-161, 1.49e-21, 2.75e-158, 4.95e-31, 2.75e-09, 1.06e-34],
        "bbpso": [2.63e-236, 8.03e-236, 5.41e-231, 2.11e-26, 0.00e+00, 4.26e-21],
        "bbfwa": [2.26e-13, 1.13e-09, 6.71e-09, 6.82e-11, 1.54e-09, 6.91e-12],
        "gbde":  [3.48e-57, 2.63e-55, 1.52e-51, 1.48e-30, 3.81e-127, 5.86e-02],
    }
    EXPECTED_MULTI = {"bip": 3.17, "bbpso": 2.50, "bbfwa": 3.17, "gbde": 1.17}
    EXPECTED_UNI = {"bip": 2.17, "bbpso": 1.50, "bbfwa": 3.67, "gbde": 2.67}

    def test_printed_mean_errors_reproduce_the_printed_average_ranks(self):
        results = []
        for means, expected in ((self.MULTI, self.EXPECTED_MULTI),
                                (self.UNI, self.EXPECTED_UNI)):
            stats = {(a, f"F{j}"): m
                     for a, row in means.items()
                     for j, m in enumerate(row, start=1)}
            table = rank_algorithms(stats, group=[f"F{j}" for j in range(1, 7)])
            for algo, want in expected.items():
                results.append(abs(table["average_rank"][algo] - want) <= 0.005)
        ok = all(results)
        line = report(4, ok, f"{sum(results)}/8 average ranks within ±0.005")
        assert ok, line


class TestCriterion5TunnelingOracle:
    def test_monte_carlo_acceptance_frequency(self):
        n = 100_000
        target = math.exp(-1.0)
        rng = np.random.default_rng(2024)
        # n worsening moves with delta_f=4, delta_x=1; gamma=2, A=1
        accept, _ = accept_moves(np.full(n, 4.0), np.ones(n), 2.0, 1.0, rng)
        taken = int(np.count_nonzero(accept))
        freq = taken / n
        sd = math.sqrt(target * (1 - target) / n)
        ok = abs(freq - target) <= 3 * sd
        line = report(5, ok, f"frequency {freq:.5f} vs exp(-1)={target:.5f} "
                             f"({abs(freq - target) / sd:.2f} binomial sd)")
        assert ok, line


class TestCriterion6DensityConcentration:
    STALL_EVAL = 100  # a run whose last scale transition comes this early has stalled

    @classmethod
    def stalled_scale(cls, log, span):
        """sigma_s a run stalled at (its last transition precedes STALL_EVAL), else None.

        A run that never left the first scale stalled at the full span.
        """
        halves = [b for b in log.events.batches if b.kind[0] == SCALE_HALVE]
        if not halves:
            return span
        return halves[-1].sigma if halves[-1].index[0] < cls.STALL_EVAL else None

    def test_mode_cell_lands_on_the_global_well(self):
        spec = get_objective("double_well", 2)
        hits, stalls = {}, {}
        for mean_replace in (True, False):
            count = 0
            scales = []
            for seed in range(20):
                _, log = record_run(
                    "bip", "double_well", 2, max_fes=2000, seed=seed,
                    overrides={"k": 5, "mean_replace": mean_replace},
                )
                hist = wave_modulus(log, bins_per_dim=50)
                count += hist.cell_contains(hist.mode_cell(), spec.optimum_position)
                sigma = self.stalled_scale(log, spec.max_span)
                if sigma is not None:
                    scales.append(sigma)
            hits[mean_replace] = count
            at = ", ".join(f"{s:g} x{scales.count(s)}"
                           for s in sorted(set(scales), reverse=True))
            stalls[mean_replace] = f"{len(scales)}/20" + (f" at sigma_s {at}" if at else "")
        concentrated = hits[True] >= 15
        helped = hits[False] < hits[True]
        ok = concentrated and helped
        line = report(6, ok, f"mode on the optimum cell: {hits[True]}/20 with "
                             f"mean replacement, {hits[False]}/20 without "
                             f"(need >=15 and a strict drop); stalled (last "
                             f"scale transition before evaluation "
                             f"{self.STALL_EVAL}): {stalls[True]} with mean "
                             f"replacement, {stalls[False]} without")
        assert ok, line


class TestCriterion7TransmissionCycles:
    """The transmission probability anneals within a scale and resets at each transition.

    Sweep j of scale i runs at gamma = sigma_s * exp(-j) with
    sigma_s = span / 2**i, and every tunneling decision of that sweep
    uses tunneling_probability at that gamma.  The maximum of the sampled
    probabilities in a sweep is not itself monotone: each sweep draws new
    gaps and step lengths, so it is reported but not asserted on.
    """

    DECISIONS = (ACCEPT_TUNNEL, REJECT)
    BARRIER = (1.0, 1.0)  # (delta_f, delta_x) of the fixed barrier in check (c)

    @staticmethod
    def sweeps(log):
        """Sweep batches as (scale index, sweep index within the scale, batch)."""
        out = []
        scale, j = 0, -1
        for b in log.events.batches:
            if b.kind[0] == SCALE_HALVE:
                scale, j = scale + 1, -1
            elif b.kind[0] in (ACCEPT_BETTER, ACCEPT_TUNNEL, REJECT):
                j += 1
                out.append((scale, j, b))
        return out

    @staticmethod
    def on_schedule(got, want):
        # gamma underflows to 0 on long scales; 0 is then the right limit
        return got == want or (got == 0.0 and want < sys.float_info.min)

    def test_per_sweep_maximum_cycles_with_the_scales(self):
        cfg = BipConfig()
        span = get_objective("F7", DIM).max_span
        _, log = record_run("bip", "F7", DIM, max_fes=BUDGET, seed=0,
                            success_threshold=1e-8)
        transitions = int(np.count_nonzero(log.events.column("kind") == SCALE_HALVE))
        assert transitions >= 3, "protocol needs several scale transitions"
        sweeps = self.sweeps(log)
        gammas = [span / 2.0 ** i * math.exp(-j) for i, j, _ in sweeps]

        # (a) every event of a sweep carries the scheduled gamma
        off_schedule = sum(len(b) * (not self.on_schedule(b.gamma, g))
                           for (_, _, b), g in zip(sweeps, gammas))

        # (b) every tunneling decision used the formula at its sweep's gamma,
        # written out here so the kernel is not checked against itself
        def transmission(delta_f, delta_x, gamma):
            if gamma == 0.0:
                return 0.0
            return min(1.0, cfg.amplitude_a * math.exp(-delta_x * math.sqrt(delta_f) / gamma))

        decisions = [(p, df, dx, g) for (_, _, b), g in zip(sweeps, gammas)
                     for k, p, df, dx in zip(b.kind.tolist(), b.probability.tolist(),
                                             b.delta_f.tolist(), b.delta_x.tolist())
                     if k in self.DECISIONS]
        off_formula = sum(
            not math.isclose(p, transmission(df, dx, g), rel_tol=1e-12, abs_tol=0.0)
            for p, df, dx, g in decisions)

        # (c) for a fixed barrier at the gamma each sweep recorded, the
        # transmission never rises within a scale and rises again at a
        # transition; a one-sweep scale hands gamma = sigma_s to a scale
        # starting at sigma_s / 2, so not at every one
        fixed = [(i, transmission(*self.BARRIER, b.gamma)) for i, _, b in sweeps]
        rises = [s1 == s0 for (s0, t0), (s1, t1) in zip(fixed, fixed[1:]) if t1 > t0]
        within_rises = sum(rises)
        transition_rises = len(rises) - within_rises

        # information only: the sampled per-sweep maximum is noisy
        sampled = [(i, max(probs)) for i, _, b in sweeps
                   if (probs := b.probability[np.isin(b.kind, self.DECISIONS)].tolist())]
        sampled_rises = sum(s1 == s0 and m1 > m0
                            for (s0, m0), (s1, m1) in zip(sampled, sampled[1:]))

        ok = (off_schedule == 0 and off_formula == 0
              and within_rises == 0 and transition_rises >= 1)
        line = report(7, ok, f"{transitions} transitions, {len(sweeps)} sweeps; "
                             f"{off_schedule} events off the gamma schedule "
                             f"(need 0); {off_formula} of {len(decisions)} decision "
                             f"probabilities off the formula (need 0); "
                             f"fixed-barrier transmission rises {within_rises} "
                             f"times within a scale (need 0) and at "
                             f"{transition_rises} transitions (need >=1); "
                             f"sampled per-sweep max rose {sampled_rises} times "
                             f"within a scale (information only)")
        assert ok, line


class TestCriterion8PropertyBattery:
    def test_always_runnable_properties(self):
        failures = []

        # tunneling probability is monotone in each argument
        rng = np.random.default_rng(0)
        df = rng.uniform(0, 50, 10_000)
        dx = rng.uniform(0, 20, 10_000)
        g = rng.uniform(1e-3, 10, 10_000)
        base = tunneling_probability(df, dx, g)
        if not (np.all(tunneling_probability(df + 0.5, dx, g) <= base)
                and np.all(tunneling_probability(df, dx + 0.5, g) <= base)
                and np.all(tunneling_probability(df, dx, g + 0.5) >= base)):
            failures.append("tunneling monotonicity")

        # best-so-far error is monotone on a logged run
        out = run_single("bip", "F2", 5, max_fes=3000, seed=1,
                         success_threshold=0.0)
        errs = [e for _, e in out.error_trace]
        if not all(b <= a for a, b in zip(errs, errs[1:])):
            failures.append("best-so-far monotonicity")

        # sampling-scale schedule is exact and the population never resizes
        events = EventLog()
        obj = BudgetedObjective(get_objective("F7", 4), 4000)
        BipRun(obj, BipConfig(seed=2), success_threshold=0.0,
               events=events).run()
        halves = [b.sigma for b in events.batches if b.kind[0] == SCALE_HALVE]
        span = obj.spec.max_span
        if not halves or any(sigma != span / 2.0 ** j
                             for j, sigma in enumerate(halves, start=1)):
            failures.append("sigma schedule exactness")
        kind = events.column("kind")
        sweep_particles = set(events.column("particle")[
            (kind != SCALE_HALVE) & (kind != MEAN_REPLACE)].tolist())
        if sweep_particles != set(range(15)):
            failures.append("population size constancy")

        # bitwise determinism
        a = run_single("bip", "F7", 4, max_fes=2000, seed=3)
        b = run_single("bip", "F7", 4, max_fes=2000, seed=3)
        if a.error_trace != b.error_trace:
            failures.append("seed determinism")

        # gaussian step moments
        rng = np.random.default_rng(4)
        steps = np.stack([gaussian_step(np.zeros(2), 0.5, rng, -np.inf, np.inf)
                          for _ in range(10_000)])
        if not (np.all(np.abs(steps.mean(axis=0)) < 0.02)
                and np.all(np.abs(steps.std(axis=0) - 0.5) < 0.02)):
            failures.append("gaussian step moments")

        # mean replacement on a hand-computed case
        got = BipRun(BudgetedObjective(get_objective("F7", 1), 10), BipConfig(k=2))
        got.positions = np.array([[0.0], [2.0]])
        got.fitness = np.array([0.0, 4.0])
        got._transition_scale()
        if not (np.array_equal(got.positions[1], [1.0]) and got.fitness[1] == 1.0):
            failures.append("mean replacement oracle")

        # histogram normalization
        _, log = record_run("bip", "F7", 2, max_fes=500, seed=5)
        hist = wave_modulus(log, bins_per_dim=25)
        volume = float(np.prod([e[1] - e[0] for e in hist.edges]))
        if abs(float(hist.normalized.sum()) * volume - 1.0) > 1e-12:
            failures.append("histogram normalization")

        ok = not failures
        line = report(8, ok, "all eight properties hold" if ok
                      else "failed: " + ", ".join(failures))
        assert ok, line


class TestLargeScaleSubstitute:
    def test_high_dimension_smoke_run_completes_in_budget(self):
        out = run_single("bip", "F12", DIM, max_fes=BUDGET, seed=0,
                         success_threshold=1e-8)
        ok = out.evals_used <= BUDGET and math.isfinite(out.final_error)
        line = report("substitute", ok,
                      f"F12/{DIM}D finished at error {out.final_error:.2e} "
                      f"in {out.evals_used} evaluations")
        assert ok, line
