"""Plan/legacy equivalence tests for repro.sampling.reconstruction.

The :class:`ReconstructionPlan` fast path must agree with the preserved
pre-refactor implementation (:func:`reference_evaluate`) to tight tolerance
for any valid delay, and on every part of the record —
including edge times where the truncated kernel support falls off the
acquisition.
"""

import numpy as np
import pytest

from repro.errors import DelayConstraintError, ValidationError
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    ReconstructionPlan,
    reference_evaluate,
)
from repro.sampling.nonuniform import delay_upper_bound

DELAY = 180e-12

RTOL = 1e-9
ATOL = 1e-12


def random_valid_delays(band, rng, count=6):
    """Candidate delays drawn across the stable search interval (0, m)."""
    bound = delay_upper_bound(band)
    return rng.uniform(0.05 * bound, 0.95 * bound, count)


@pytest.fixture(scope="module")
def plan_times(fast_sample_set):
    reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=60)
    low, high = reconstructor.valid_time_range()
    rng = np.random.default_rng(7)
    return np.sort(rng.uniform(low, high, 200))


class TestPlanReferenceEquivalence:
    def test_plan_matches_reference(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        rng = np.random.default_rng(42)
        for delay in random_valid_delays(fast_sample_set.band, rng):
            np.testing.assert_allclose(
                plan.evaluate(delay),
                reference_evaluate(fast_sample_set, plan_times, delay, num_taps=60),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_random_delays_property_style(self, fast_sample_set, plan_times):
        """Many random (delay, taps) draws all agree with the reference path."""
        rng = np.random.default_rng(2014)
        for _ in range(10):
            num_taps = int(rng.choice([16, 32, 60, 80]))
            delay = float(random_valid_delays(fast_sample_set.band, rng, count=1)[0])
            plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=num_taps)
            np.testing.assert_allclose(
                plan.evaluate(delay),
                reference_evaluate(fast_sample_set, plan_times, delay, num_taps=num_taps),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_slow_acquisition_matches_reference(self, slow_sample_set):
        rng = np.random.default_rng(3)
        times = np.sort(
            rng.uniform(slow_sample_set.start_time, slow_sample_set.end_time, 150)
        )
        plan = ReconstructionPlan(slow_sample_set, times, num_taps=60)
        for delay in random_valid_delays(slow_sample_set.band, rng):
            np.testing.assert_allclose(
                plan.evaluate(delay),
                reference_evaluate(slow_sample_set, times, delay, num_taps=60),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_edge_of_record_times(self, fast_sample_set):
        """Partial-support instants (clipped tap indices) match the reference."""
        start = fast_sample_set.start_time
        end = fast_sample_set.end_time
        period = fast_sample_set.sample_period
        times = np.array(
            [
                start,  # kernel support half off the record
                start + 2.0 * period,
                start + 0.5 * period,  # exactly between two grid samples
                end - 2.0 * period,
                end - period / 3.0,
                end + 5.0 * period,  # fully outside: both paths must return 0
                start - 5.0 * period,
            ]
        )
        plan = ReconstructionPlan(fast_sample_set, times, num_taps=60)
        np.testing.assert_allclose(
            plan.evaluate(DELAY),
            reference_evaluate(fast_sample_set, times, DELAY, num_taps=60),
            rtol=RTOL,
            atol=ATOL,
        )

    @pytest.mark.parametrize("num_taps", [16, 60])
    def test_valid_range_ends_match_reference(self, fast_sample_set, num_taps):
        """The ends of the reconstructor's valid interval, where the full kernel just fits."""
        reconstructor = NonuniformReconstructor(
            fast_sample_set, assumed_delay=DELAY, num_taps=num_taps
        )
        times = np.array(reconstructor.valid_time_range())
        plan = ReconstructionPlan(fast_sample_set, times, num_taps=num_taps)
        np.testing.assert_allclose(
            plan.evaluate(DELAY),
            reference_evaluate(fast_sample_set, times, DELAY, num_taps=num_taps),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_time_exactly_on_grid_sample(self, fast_sample_set):
        """t coinciding with a grid instant hits the sinc removable singularity."""
        period = fast_sample_set.sample_period
        times = fast_sample_set.start_time + np.arange(40, 44) * period
        plan = ReconstructionPlan(fast_sample_set, times, num_taps=60)
        np.testing.assert_allclose(
            plan.evaluate(DELAY),
            reference_evaluate(fast_sample_set, times, DELAY, num_taps=60),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_time_on_delayed_sample_instant(self, fast_sample_set):
        """t coinciding with a delayed-channel instant (v + D = 0) is exact too."""
        period = fast_sample_set.sample_period
        times = fast_sample_set.start_time + np.arange(50, 53) * period + DELAY
        plan = ReconstructionPlan(fast_sample_set, times, num_taps=60)
        np.testing.assert_allclose(
            plan.evaluate(DELAY),
            reference_evaluate(fast_sample_set, times, DELAY, num_taps=60),
            rtol=RTOL,
            atol=ATOL,
        )


class TestEvaluateMany:
    def test_matches_looped_evaluate(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        rng = np.random.default_rng(5)
        delays = random_valid_delays(fast_sample_set.band, rng, count=25)
        batched = plan.evaluate_many(delays)
        looped = np.stack([plan.evaluate(delay) for delay in delays])
        np.testing.assert_array_equal(batched, looped)

    def test_chunking_transparent(self, fast_sample_set, plan_times, monkeypatch):
        """Results are identical whatever the internal delay-axis chunk size."""
        import repro.sampling.reconstruction as reconstruction_module

        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        rng = np.random.default_rng(6)
        delays = random_valid_delays(fast_sample_set.band, rng, count=9)
        full = plan.evaluate_many(delays)
        monkeypatch.setattr(reconstruction_module, "_BATCH_ELEMENT_BUDGET", 1)
        np.testing.assert_array_equal(plan.evaluate_many(delays), full)

    def test_shape_and_empty(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        out = plan.evaluate_many([DELAY, 1.2 * DELAY])
        assert out.shape == (2, plan_times.size)
        assert plan.evaluate_many(np.empty(0)).shape == (0, plan_times.size)

    def test_forbidden_delay_rejected(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        forbidden = delay_upper_bound(fast_sample_set.band)
        with pytest.raises(DelayConstraintError):
            plan.evaluate_many([DELAY, forbidden])

    def test_non_positive_delay_rejected(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=60)
        with pytest.raises(ValidationError):
            plan.evaluate(-1e-12)


class TestPlanConfiguration:
    def test_odd_num_taps_rejected(self, fast_sample_set, plan_times):
        with pytest.raises(ValidationError):
            ReconstructionPlan(fast_sample_set, plan_times, num_taps=61)

    def test_non_sample_set_rejected(self, plan_times):
        with pytest.raises(ValidationError):
            ReconstructionPlan("samples", plan_times)

    def test_properties(self, fast_sample_set, plan_times):
        plan = ReconstructionPlan(fast_sample_set, plan_times, num_taps=32)
        assert plan.num_taps == 32
        assert plan.sample_set is fast_sample_set
        np.testing.assert_allclose(plan.evaluation_times, plan_times)


class TestFacade:
    def test_facade_evaluate_uses_plan(self, fast_sample_set, plan_times):
        facade = NonuniformReconstructor(fast_sample_set, num_taps=60)
        np.testing.assert_allclose(
            facade.evaluate(plan_times),
            reference_evaluate(fast_sample_set, plan_times, num_taps=60),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_plan_for_carries_the_facade_settings(self, fast_sample_set, plan_times):
        facade = NonuniformReconstructor(fast_sample_set, assumed_delay=DELAY, num_taps=32)
        plan = facade.plan_for(plan_times)
        assert plan.num_taps == 32
        np.testing.assert_array_equal(plan.evaluate(DELAY), facade.evaluate(plan_times))

    def test_repeated_grid_evaluates_bit_identically(self, fast_sample_set, plan_times):
        """Each call builds its own plan; a repeated grid gives the same bits."""
        facade = NonuniformReconstructor(fast_sample_set, num_taps=60)
        assert facade.plan_for(plan_times) is not facade.plan_for(plan_times)
        np.testing.assert_array_equal(
            facade.evaluate(plan_times), facade.evaluate(plan_times.copy())
        )

    def test_dense_grid_matches_reference(self, fast_sample_set, plan_times):
        """A measurement-sized render (2,000 instants x 61 taps) takes the
        same route as a small grid and keeps the reference accuracy."""
        facade = NonuniformReconstructor(fast_sample_set, num_taps=60)
        dense = np.linspace(plan_times[0], plan_times[-1], 2_000)
        np.testing.assert_allclose(
            facade.evaluate(dense),
            reference_evaluate(fast_sample_set, dense, num_taps=60),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_scalar_time_input(self, fast_sample_set):
        facade = NonuniformReconstructor(fast_sample_set, num_taps=60)
        low, high = facade.valid_time_range()
        midpoint = 0.5 * (low + high)
        out = facade.evaluate(midpoint)
        assert out.shape == (1,)
        np.testing.assert_allclose(
            out, reference_evaluate(fast_sample_set, midpoint), rtol=RTOL, atol=ATOL
        )
