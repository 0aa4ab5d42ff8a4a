"""Tests for the benchmark objectives and the evaluation budget meter."""

import math

import numpy as np
import pytest

from bareopt.benchmarks import (
    SCHWEFEL_OPTIMUM,
    BudgetExhausted,
    BudgetedObjective,
    get_objective,
    registry_names,
)


def evaluate(spec, xs):
    """Values of the batch ``xs``, through a meter holding exactly its budget."""
    xs = np.asarray(xs, dtype=float)
    return BudgetedObjective(spec, len(xs)).evaluate_many(xs)


def naive_value(function_id, x):
    """Straightforward per-definition loops, kept separate from the library
    implementations on purpose so the two can disagree."""
    x = [float(v) for v in x]
    n = len(x)
    if function_id == 1:  # Griewank
        s = sum(v * v for v in x) / 4000.0
        p = 1.0
        for i, v in enumerate(x, start=1):
            p *= math.cos(v / math.sqrt(i))
        return s - p + 1.0
    if function_id == 2:  # Rastrigin
        return sum(v * v - 10.0 * math.cos(2 * math.pi * v) + 10.0 for v in x)
    if function_id == 3:  # Ackley
        s1 = sum(v * v for v in x) / n
        s2 = sum(math.cos(2 * math.pi * v) for v in x) / n
        return -20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20.0 + math.e
    if function_id == 4:  # Levy
        w = [1.0 + (v - 1.0) / 4.0 for v in x]
        total = math.sin(math.pi * w[0]) ** 2
        for wi in w[:-1]:
            total += (wi - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * wi + 1.0) ** 2)
        total += (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2 * math.pi * w[-1]) ** 2)
        return total
    if function_id == 5:  # Alpine
        return sum(abs(v * math.sin(v) + 0.1 * v) for v in x)
    if function_id == 6:  # Schwefel
        return 418.9829 * n - sum(v * math.sin(math.sqrt(abs(v))) for v in x)
    if function_id == 7:  # Sphere
        return sum(v * v for v in x)
    if function_id == 8:  # Sum Squares
        return sum(i * v * v for i, v in enumerate(x, start=1))
    if function_id == 9:  # Rotated Hyper-Ellipsoid
        total = 0.0
        for i in range(1, n + 1):
            total += sum(x[:i]) ** 2
        return total
    if function_id == 10:  # Ellipsoidal (shifted)
        return sum((v - i) ** 2 for i, v in enumerate(x, start=1))
    if function_id == 11:  # Sum of Different Powers
        return sum(abs(v) ** (i + 1) for i, v in enumerate(x, start=1))
    if function_id == 12:  # Zakharov
        s1 = sum(v * v for v in x)
        s2 = sum(0.5 * i * v for i, v in enumerate(x, start=1))
        return s1 + s2 ** 2 + s2 ** 4
    raise ValueError(function_id)


class TestBenchmarkValues:
    def test_known_point_values(self):
        assert evaluate(get_objective("F7", 3), [[1.0, 2.0, 3.0]])[0] == 14.0
        assert evaluate(get_objective("F8", 2), [[1.0, 1.0]])[0] == 3.0
        assert evaluate(get_objective("F2", 1), [[0.5]])[0] == pytest.approx(20.25, abs=1e-12)
        assert evaluate(get_objective("F9", 3), [[1.0, 1.0, 1.0]])[0] == pytest.approx(14.0)
        assert evaluate(get_objective("F10", 3), [[1.0, 2.0, 3.0]])[0] == 0.0

    def test_matches_naive_loops_on_random_points(self):
        rng = np.random.default_rng(7)
        for fid in range(1, 13):
            for dim in (2, 5, 11):
                spec = get_objective(f"F{fid}", dim)
                xs = rng.uniform(spec.lower_bound, spec.upper_bound, size=(8, dim))
                for x, got in zip(xs, evaluate(spec, xs)):
                    expected = naive_value(fid, x)
                    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10), (
                        f"F{fid} dim={dim} disagrees with the naive loop"
                    )

    def test_optimum_residuals(self):
        for fid in range(1, 13):
            for dim in (2, 10, 30):
                spec = get_objective(f"F{fid}", dim)
                value = evaluate(spec, spec.optimum_position[None, :])[0]
                residual = abs(value - spec.optimum_value)
                limit = 1e-3 if fid == 6 else 1e-9
                assert residual <= limit, f"F{fid} dim={dim} residual {residual}"

    def test_schwefel_optimum_coordinate(self):
        spec = get_objective("F6", 4)
        assert np.all(spec.optimum_position == SCHWEFEL_OPTIMUM)

    def test_bounds_per_table(self):
        bounds = {
            1: (-100, 100), 2: (-5.12, 5.12), 3: (-32.77, 32.77), 4: (-10, 10),
            5: (0, 10), 6: (-500, 500), 7: (-5.12, 5.12), 8: (-10, 10),
            9: (-65.54, 65.54), 10: (-100, 100), 11: (-1, 1), 12: (-5, 10),
        }
        for fid, (lo, hi) in bounds.items():
            spec = get_objective(f"F{fid}", 3)
            assert np.all(spec.lower_bound == lo) and np.all(spec.upper_bound == hi)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            evaluate(get_objective("F7", 3), np.zeros((4, 2)))

    def test_unknown_function_id(self):
        # an F-number off the table gets the same message as any unknown name
        for name in ("F0", "F13"):
            with pytest.raises(ValueError, match=rf"unknown objective '{name}'; known names: F1, "):
                get_objective(name, 5)


class TestDoubleWell:
    def test_minimum_beats_a_grid_scan(self):
        spec = get_objective("double_well", 1)
        grid = np.linspace(spec.lower_bound[0], spec.upper_bound[0], 200001)
        values = evaluate(spec, grid[:, None])
        assert spec.optimum_value <= values.min() + 1e-12
        assert abs(grid[np.argmin(values)] - spec.optimum_position[0]) < 1e-3

    def test_tilt_breaks_the_symmetry(self):
        spec = get_objective("double_well", 1)
        left, right = evaluate(spec, [[-2.0], [2.0]])
        assert left == pytest.approx(-0.1, abs=1e-12)
        assert right == pytest.approx(0.1, abs=1e-12)
        assert spec.optimum_position[0] == pytest.approx(-2.0245462620, abs=1e-8)

    def test_value_scales_with_dimension(self):
        one = get_objective("double_well", 1)
        three = get_objective("double_well", 3)
        assert three.optimum_value == pytest.approx(3 * one.optimum_value, rel=1e-12)
        assert np.all(three.optimum_position == one.optimum_position[0])

    def test_box_spans_twice_the_well_separation(self):
        spec = get_objective("double_well", 2)
        assert np.all(spec.lower_bound == -4.0) and np.all(spec.upper_bound == 4.0)

    def test_the_shape_is_not_an_argument(self):
        with pytest.raises(TypeError):
            get_objective("double_well", 1, delta=0.1)

    def test_stationary_point_has_zero_slope(self):
        spec = get_objective("double_well", 1)
        x = spec.optimum_position[0]
        h = 1e-6
        above, below = evaluate(spec, [[x + h], [x - h]])
        slope = (above - below) / (2 * h)
        assert abs(slope) < 1e-6


class TestRegistry:
    def test_names_cover_table_and_extras(self):
        assert registry_names() == [f"F{fid}" for fid in range(1, 13)] + ["double_well"]

    def test_lookup_is_case_insensitive(self):
        a = get_objective("f3", 4)
        b = get_objective("F3", 4)
        ones = np.ones((1, 4))
        assert a.name == b.name
        assert np.array_equal(evaluate(a, ones), evaluate(b, ones))
        # every name resolves in any case, surrounding spaces stripped
        for name in registry_names():
            assert get_objective(f"  {name.lower()} ", 2).name == name

    def test_dim_below_one_is_refused(self):
        for name in registry_names():
            with pytest.raises(ValueError, match="dim must be at least 1"):
                get_objective(name, 0)

    def test_unknown_name(self):
        # a zero-padded F-number and a hyphenated well are not registry names
        known = ", ".join(registry_names())
        for name in ("F99", "F07", "double-well"):
            with pytest.raises(ValueError) as err:
                get_objective(name, 3)
            assert str(err.value) == f"unknown objective {name!r}; known names: {known}"


class TestBudgetedObjective:
    def test_meter_counts_and_stops(self):
        budget = BudgetedObjective(get_objective("F7", 2), max_fes=3)
        budget.evaluate_many([[1.0, 1.0]])
        budget.evaluate_many([[0.0, 0.0], [2.0, 0.0]])
        assert budget.evals_used == 3 and budget.remaining == 0
        with pytest.raises(BudgetExhausted):
            budget.evaluate_many([[1.0, 1.0]])

    def test_oversized_batch_consumes_nothing(self):
        budget = BudgetedObjective(get_objective("F7", 2), max_fes=5)
        budget.evaluate_many([[1.0, 1.0]])
        with pytest.raises(BudgetExhausted):
            budget.evaluate_many(np.zeros((5, 2)))
        assert budget.evals_used == 1 and budget.remaining == 4

    @pytest.mark.parametrize("max_fes", [2, 5])
    def test_single_point_batch_is_a_shape_error(self, max_fes):
        # a point of shape (dim,) is not a batch, whether or not dim exceeds
        # the remaining budget
        budget = BudgetedObjective(get_objective("F1", 3), max_fes=max_fes)
        with pytest.raises(ValueError, match=r"expects shape \(m, 3\)"):
            budget.evaluate_many(np.zeros(3))
        assert budget.evals_used == 0 and budget.remaining == max_fes

    def test_empty_batch_is_free(self):
        budget = BudgetedObjective(get_objective("F7", 2), max_fes=1)
        out = budget.evaluate_many(np.zeros((0, 2)))
        assert out.shape == (0,) and budget.evals_used == 0

    @pytest.mark.parametrize("dim", [1, 2, 10])
    @pytest.mark.parametrize("name", registry_names())
    def test_every_kernel_runs_an_empty_batch_for_free(self, name, dim):
        # the kernel runs on zero rows; even a spent budget allows it
        budget = BudgetedObjective(get_objective(name, dim), max_fes=0)
        out = budget.evaluate_many(np.zeros((0, dim)))
        assert out.shape == (0,) and out.dtype == np.float64
        assert budget.evals_used == 0 and budget.remaining == 0

    def test_zero_budget_is_allowed(self):
        budget = BudgetedObjective(get_objective("F7", 2), max_fes=0)
        assert budget.remaining == 0
        with pytest.raises(BudgetExhausted):
            budget.evaluate_many([[0.0, 0.0]])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetedObjective(get_objective("F7", 2), max_fes=-1)
