"""Tests for repro.calibration.cost (Eq. 8 / Eq. 9 of the paper)."""

import numpy as np
import pytest

from repro.calibration import (
    SkewCostFunction,
    default_evaluation_times,
    rates_satisfy_uniqueness,
    search_upper_bound,
    select_slow_sample_rate,
    uniqueness_conditions_met,
)
from repro.calibration import cost as cost_module
from repro.errors import CalibrationError, ValidationError
from repro.sampling import BandpassBand, IdealNonuniformSampler
from repro.signals import single_tone


DELAY = 180e-12


@pytest.fixture(scope="module")
def cost_function(request):
    fast = request.getfixturevalue("fast_sample_set")
    slow = request.getfixturevalue("slow_sample_set")
    return SkewCostFunction(fast, slow, num_evaluation_points=200, seed=17)


class TestUniquenessConditions:
    def test_paper_rate_pair_satisfies_conditions(self, fast_sample_set, slow_sample_set):
        assert uniqueness_conditions_met(fast_sample_set, slow_sample_set)

    def test_swapped_rates_rejected(self, fast_sample_set, slow_sample_set):
        with pytest.raises(ValidationError):
            uniqueness_conditions_met(slow_sample_set, fast_sample_set)

    def test_search_upper_bound_is_paper_m(self, fast_sample_set, slow_sample_set):
        """m = 483 ps for B = 90 MHz, B1 = 45 MHz at fc = 1 GHz (Section V)."""
        bound = search_upper_bound(fast_sample_set, slow_sample_set)
        assert bound == pytest.approx(483.09e-12, rel=1e-3)


class TestRateSelection:
    """Eq. (9) checked from the rates alone, before any acquisition."""

    # At 800 MHz and 113 MHz the paper's B1 = B/2 violates Eq. (9); 0.48 B does not.
    @pytest.mark.parametrize(
        "centre_mhz, ratio",
        [(1000.0, 0.5), (800.0, 0.5), (800.0, 0.45), (800.0, 0.48), (113.0, 0.5), (113.0, 0.48)],
    )
    def test_rate_check_agrees_with_the_acquisition_check(self, centre_mhz, ratio):
        centre = centre_mhz * 1e6
        fast_rate = 90e6
        band = BandpassBand.from_centre(centre, fast_rate)
        tone = single_tone(centre, amplitude=0.5)
        fast = IdealNonuniformSampler(band, delay=DELAY).acquire(tone, num_samples=8)
        slow = IdealNonuniformSampler(band, delay=DELAY, sample_rate=ratio * fast_rate).acquire(
            tone, num_samples=8
        )
        assert rates_satisfy_uniqueness(centre, fast_rate, ratio * fast_rate) == (
            uniqueness_conditions_met(fast, slow)
        )

    def test_slow_rate_must_be_below_the_fast_rate(self):
        assert not rates_satisfy_uniqueness(1e9, 90e6, 90e6)
        assert not rates_satisfy_uniqueness(1e9, 45e6, 90e6)

    def test_selection_takes_the_first_ratio_meeting_eq9(self):
        assert select_slow_sample_rate(1e9, 90e6) == 0.5 * 90e6
        # 0.5 violates Eq. (9) at 800 MHz; 0.48 is next on the list and holds.
        assert select_slow_sample_rate(800e6, 90e6) == 0.48 * 90e6

    def test_selection_fails_when_no_ratio_meets_eq9(self, monkeypatch):
        monkeypatch.setattr(cost_module, "SLOW_RATE_RATIOS", (0.5, 0.45))
        with pytest.raises(CalibrationError, match="Eq. 9"):
            select_slow_sample_rate(800e6, 90e6)


class TestEvaluationTimes:
    def test_default_times_inside_overlap(self, fast_sample_set, slow_sample_set):
        times = default_evaluation_times(fast_sample_set, slow_sample_set, num_points=100, seed=1)
        assert times.size == 100
        assert times.min() > fast_sample_set.start_time
        assert times.max() < min(fast_sample_set.end_time, slow_sample_set.end_time)

    def test_reproducible_with_seed(self, fast_sample_set, slow_sample_set):
        a = default_evaluation_times(fast_sample_set, slow_sample_set, num_points=50, seed=2)
        b = default_evaluation_times(fast_sample_set, slow_sample_set, num_points=50, seed=2)
        np.testing.assert_allclose(a, b)

    def test_insufficient_overlap_rejected(self, fast_sample_set, slow_sample_set):
        with pytest.raises(CalibrationError):
            default_evaluation_times(fast_sample_set, slow_sample_set, num_taps=10_000)


class TestCostFunctionShape:
    def test_minimum_at_true_delay(self, cost_function):
        """Fig. 5: the cost is minimal exactly at D_hat = D."""
        at_truth = cost_function(DELAY)
        for offset in (-40e-12, -15e-12, 15e-12, 40e-12):
            assert cost_function(DELAY + offset) > at_truth

    def test_cost_at_truth_is_tiny(self, cost_function):
        signal_power = np.mean(cost_function.sample_set_fast.on_grid ** 2)
        assert cost_function(DELAY) < 1e-4 * signal_power

    def test_cost_grows_monotonically_away_from_minimum(self, cost_function):
        """On each side of the minimum the cost increases with distance (sampled coarsely)."""
        offsets = np.array([10e-12, 30e-12, 60e-12, 100e-12])
        right = cost_function.evaluate_many(DELAY + offsets)
        left = cost_function.evaluate_many(DELAY - offsets)
        assert np.all(np.diff(right) > 0)
        assert np.all(np.diff(left) > 0)

    def test_unique_minimum_over_search_interval(self, cost_function):
        """Coarse sweep over (0, m): the global minimum lands at the true delay."""
        candidates = np.linspace(20e-12, cost_function.upper_bound * 0.95, 47)
        costs = cost_function.evaluate_many(candidates)
        best = candidates[int(np.argmin(costs))]
        assert abs(best - DELAY) < (candidates[1] - candidates[0])

    def test_candidate_outside_interval_rejected(self, cost_function):
        with pytest.raises(CalibrationError):
            cost_function(cost_function.upper_bound * 1.1)

    def test_negative_candidate_rejected(self, cost_function):
        with pytest.raises(ValidationError):
            cost_function(-1e-12)


class TestVectorisedSweep:
    def test_batch_rows_equal_scalar_calls(self, cost_function):
        candidates = np.linspace(60e-12, 420e-12, 19)
        swept = cost_function.evaluate_many(candidates)
        scalar = np.array([cost_function(delay) for delay in candidates])
        np.testing.assert_array_equal(swept, scalar)

    def test_evaluate_many_inf_mode_flags_invalid(self, cost_function):
        bound = cost_function.upper_bound
        candidates = np.array([180e-12, bound * 1.2, 150e-12, -1e-12])
        costs = cost_function.evaluate_many(candidates, invalid="inf")
        assert np.isfinite(costs[0]) and np.isfinite(costs[2])
        assert np.isinf(costs[1]) and np.isinf(costs[3])

    def test_evaluate_many_raise_mode_propagates(self, cost_function):
        with pytest.raises(CalibrationError):
            cost_function.evaluate_many([180e-12, cost_function.upper_bound * 1.2])
        with pytest.raises(ValidationError):
            cost_function.evaluate_many([180e-12, -1e-12])

    def test_invalid_mode_name_rejected(self, cost_function):
        with pytest.raises(ValidationError):
            cost_function.evaluate_many([180e-12], invalid="nan")

    def test_plans_are_reused(self, cost_function):
        assert cost_function.plan_fast is cost_function.plan_fast
        assert cost_function.plan_fast.evaluation_times is cost_function.evaluation_times

    def test_frozen_against_silent_reconfiguration(self, cost_function):
        """Fields are compiled into the plans, so post-hoc mutation must fail."""
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            cost_function.num_taps = 80

    def test_every_route_honours_the_reconstruction_hook(
        self, fast_sample_set, slow_sample_set
    ):
        """Scalar calls, batches and the LMS all reconstruct through the one hook."""
        from repro.calibration import LmsSkewEstimator

        class Doubled(SkewCostFunction):
            def reconstruct_many(self, candidate_delays):
                fast, slow = super().reconstruct_many(candidate_delays)
                return 2.0 * fast, 2.0 * slow

        base = SkewCostFunction(fast_sample_set, slow_sample_set, seed=3)
        doubled = Doubled(
            fast_sample_set, slow_sample_set, evaluation_times=base.evaluation_times
        )
        candidates = np.array([150e-12, 180e-12, 210e-12])
        np.testing.assert_array_equal(
            doubled.evaluate_many(candidates), 4.0 * base.evaluate_many(candidates)
        )
        assert doubled(180e-12) == 4.0 * base(180e-12)
        doubled_run = LmsSkewEstimator(doubled, initial_step_seconds=1e-12).estimate(150e-12)
        base_run = LmsSkewEstimator(base, initial_step_seconds=1e-12).estimate(150e-12)
        assert [i.estimate for i in doubled_run.history] == [
            i.estimate for i in base_run.history
        ]
        assert [i.cost for i in doubled_run.history] == [4.0 * i.cost for i in base_run.history]

    def test_hook_reconstructs_each_batch_once_and_only_its_valid_candidates(
        self, fast_sample_set, slow_sample_set
    ):
        seen = []

        class Recording(SkewCostFunction):
            def reconstruct_many(self, candidate_delays):
                seen.append(np.array(candidate_delays))
                return super().reconstruct_many(candidate_delays)

        cost = Recording(fast_sample_set, slow_sample_set, seed=3)
        cost.evaluate_many([150e-12, 180e-12, 210e-12])
        cost(180e-12)
        cost.evaluate_many([150e-12, cost.upper_bound * 1.2, -1e-12, 210e-12], invalid="inf")
        cost.evaluate_many([cost.upper_bound * 1.2], invalid="inf")
        assert len(seen) == 3
        np.testing.assert_array_equal(seen[0], [150e-12, 180e-12, 210e-12])
        np.testing.assert_array_equal(seen[1], [180e-12])
        np.testing.assert_array_equal(seen[2], [150e-12, 210e-12])

    def test_reconstructions_match_reference_path(self, cost_function):
        """The plan-backed reconstructions agree with the pre-plan oracle."""
        from repro.sampling import reference_evaluate

        delays = np.array([120e-12, 180e-12, 250e-12])
        fast, slow = cost_function.reconstruct_many(delays)
        for delay, fast_row, slow_row in zip(delays, fast, slow):
            np.testing.assert_allclose(
                fast_row,
                reference_evaluate(
                    cost_function.sample_set_fast, cost_function.evaluation_times, delay
                ),
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                slow_row,
                reference_evaluate(
                    cost_function.sample_set_slow, cost_function.evaluation_times, delay
                ),
                rtol=1e-9,
                atol=1e-12,
            )


class TestCostFunctionConfiguration:
    def test_swapped_sample_sets_rejected(self, fast_sample_set, slow_sample_set):
        with pytest.raises(ValidationError):
            SkewCostFunction(slow_sample_set, fast_sample_set)

    def test_explicit_evaluation_times_used(self, fast_sample_set, slow_sample_set):
        times = np.linspace(1e-6, 3e-6, 64)
        cost = SkewCostFunction(fast_sample_set, slow_sample_set, evaluation_times=times)
        np.testing.assert_allclose(cost.evaluation_times, times)

    def test_too_few_explicit_times_rejected(self, fast_sample_set, slow_sample_set):
        with pytest.raises(ValidationError):
            SkewCostFunction(fast_sample_set, slow_sample_set, evaluation_times=[1e-6, 2e-6])

    def test_invalid_types_rejected(self, fast_sample_set):
        with pytest.raises(ValidationError):
            SkewCostFunction(fast_sample_set, "slow")
