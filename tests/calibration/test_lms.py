"""Tests for repro.calibration.lms (Algorithm 1)."""

import numpy as np
import pytest

from repro.calibration import LmsSkewEstimator, SkewCostFunction
from repro.errors import CalibrationError, ValidationError


DELAY = 180e-12


@pytest.fixture(scope="module")
def cost_function(request):
    fast = request.getfixturevalue("fast_sample_set")
    slow = request.getfixturevalue("slow_sample_set")
    return SkewCostFunction(fast, slow, num_evaluation_points=200, seed=5)


class TestConvergence:
    @pytest.mark.parametrize("initial_ps", [50.0, 100.0, 350.0, 400.0])
    def test_converges_from_paper_starting_points(self, cost_function, initial_ps):
        """Fig. 6: the LMS converges from 50/100/350/400 ps starting points."""
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12, max_iterations=60)
        result = estimator.estimate(initial_ps * 1e-12)
        assert result.converged
        assert abs(result.estimate - DELAY) < 0.5e-12

    def test_fast_convergence_under_20_iterations(self, cost_function):
        """The paper reports convergence in fewer than 20 iterations."""
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12, max_iterations=60)
        result = estimator.estimate(50e-12)
        assert result.iterations < 20

    def test_cost_trajectory_reaches_minimum(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12, max_iterations=60)
        result = estimator.estimate(100e-12)
        trajectory = result.cost_trajectory()
        assert trajectory[-1] < 1e-3 * trajectory[0]
        assert trajectory[-1] == pytest.approx(result.final_cost)

    def test_estimate_trajectory_ends_at_estimate(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12)
        result = estimator.estimate(350e-12)
        assert result.estimate_trajectory()[-1] == pytest.approx(result.estimate)

    def test_history_is_ordered(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12)
        result = estimator.estimate(50e-12)
        iterations = [item.iteration for item in result.history]
        assert iterations == sorted(iterations)

    def test_cost_evaluation_count_reported(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-12)
        result = estimator.estimate(50e-12)
        assert result.cost_evaluations >= result.iterations


class TestBatchedProbes:
    @pytest.mark.parametrize("initial_ps", [50.0, 400.0])
    def test_probe_pairs_are_one_batched_call(self, fast_sample_set, slow_sample_set, initial_ps):
        """After the initial cost, every evaluation is a forward/mirrored pair."""
        batches = []

        class Recording(SkewCostFunction):
            def evaluate_many(self, candidate_delays, invalid="raise"):
                batches.append(len(candidate_delays))
                return super().evaluate_many(candidate_delays, invalid=invalid)

        cost = Recording(fast_sample_set, slow_sample_set, num_evaluation_points=200, seed=5)
        result = LmsSkewEstimator(cost, initial_step_seconds=1e-12).estimate(initial_ps * 1e-12)
        assert batches[0] == 1 and set(batches[1:]) == {2}
        assert result.cost_evaluations == sum(batches)
        assert result.cost_evaluations >= 2 * (result.iterations - 1)

    @pytest.mark.parametrize("initial_ps", [50.0, 100.0, 350.0, 400.0])
    def test_accepted_costs_equal_scalar_calls(self, cost_function, initial_ps):
        """An accepted iterate's cost is the scalar cost at its estimate, bit for bit."""
        result = LmsSkewEstimator(
            cost_function, initial_step_seconds=1e-12, max_iterations=60
        ).estimate(initial_ps * 1e-12)
        assert [item.cost for item in result.history] == [
            cost_function(item.estimate) for item in result.history
        ]


class TestConfiguration:
    def test_initial_delay_outside_interval_rejected(self, cost_function):
        estimator = LmsSkewEstimator(cost_function)
        with pytest.raises(CalibrationError):
            estimator.estimate(600e-12)

    def test_zero_initial_delay_rejected(self, cost_function):
        estimator = LmsSkewEstimator(cost_function)
        with pytest.raises(ValidationError):
            estimator.estimate(0.0)

    def test_invalid_cost_function_type(self):
        with pytest.raises(ValidationError):
            LmsSkewEstimator("cost")

    def test_iteration_budget_respected(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=1e-14, max_iterations=5)
        result = estimator.estimate(50e-12)
        assert result.iterations <= 5

    def test_larger_initial_step_converges_too(self, cost_function):
        estimator = LmsSkewEstimator(cost_function, initial_step_seconds=20e-12, max_iterations=60)
        result = estimator.estimate(50e-12)
        assert abs(result.estimate - DELAY) < 1e-12
