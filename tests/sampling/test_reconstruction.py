"""Tests for repro.sampling.reconstruction."""

import numpy as np
import pytest

from repro.dsp import relative_reconstruction_error
from repro.errors import ValidationError
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    NonuniformSampleSet,
    ReconstructionPlan,
    reference_evaluate,
)
from repro.signals import multitone_in_band, single_tone


PAPER_BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
DELAY = 180e-12


def evaluation_times(reconstructor, count=200, seed=0):
    low, high = reconstructor.valid_time_range()
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, count)


class TestNonuniformSampleSet:
    def test_basic_properties(self, fast_sample_set):
        assert len(fast_sample_set) == 360
        assert fast_sample_set.sample_rate == pytest.approx(90e6)
        assert fast_sample_set.duration == pytest.approx(360 / 90e6)
        assert fast_sample_set.delay == pytest.approx(DELAY)

    def test_with_channels(self, fast_sample_set):
        modified = fast_sample_set.with_channels(
            fast_sample_set.on_grid * 2.0, fast_sample_set.delayed * 2.0
        )
        np.testing.assert_allclose(modified.on_grid, fast_sample_set.on_grid * 2.0)
        assert modified.delay == fast_sample_set.delay

    def test_mismatched_channel_lengths_rejected(self):
        with pytest.raises(ValidationError):
            NonuniformSampleSet(
                on_grid=np.zeros(10),
                delayed=np.zeros(11),
                sample_period=1e-8,
                delay=1e-10,
                start_time=0.0,
                band=PAPER_BAND,
            )


class TestIdealSampler:
    def test_acquire_length(self, paper_band, narrow_tone_signal):
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        sample_set = sampler.acquire(narrow_tone_signal, num_samples=128)
        assert len(sample_set) == 128

    def test_channels_are_shifted_copies(self, paper_band):
        tone = single_tone(1.0e9, amplitude=1.0)
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        sample_set = sampler.acquire(tone, num_samples=64)
        grid = np.arange(len(sample_set)) * sample_set.sample_period
        expected_delayed = tone.evaluate(sample_set.start_time + grid + DELAY)
        np.testing.assert_allclose(sample_set.delayed, expected_delayed, atol=1e-12)

    def test_reduced_rate_band_centred(self, paper_band, narrow_tone_signal):
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY, sample_rate=45e6)
        sample_set = sampler.acquire(narrow_tone_signal, num_samples=64)
        assert sample_set.band.bandwidth == pytest.approx(45e6)
        assert sample_set.band.centre == pytest.approx(paper_band.centre)

    def test_default_rate_is_band_width(self, paper_band):
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        assert sampler.sample_rate == pytest.approx(90e6)


class TestReconstructionAccuracy:
    def test_multitone_reconstruction_error_small(self, fast_sample_set, narrow_tone_signal):
        reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=60)
        times = evaluation_times(reconstructor)
        truth = narrow_tone_signal.evaluate(times)
        estimate = reconstructor.evaluate(times)
        assert relative_reconstruction_error(truth, estimate) < 1e-3

    def test_single_tone_reconstruction(self, paper_band):
        tone = single_tone(1.003e9, amplitude=0.8)
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        sample_set = sampler.acquire(tone, num_samples=300)
        reconstructor = NonuniformReconstructor(sample_set, num_taps=60)
        times = evaluation_times(reconstructor, seed=5)
        assert relative_reconstruction_error(tone.evaluate(times), reconstructor(times)) < 1e-3

    def test_more_taps_reduce_error(self, paper_band, narrow_tone_signal):
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        sample_set = sampler.acquire(narrow_tone_signal, num_samples=500)
        few = NonuniformReconstructor(sample_set, num_taps=16)
        many = NonuniformReconstructor(sample_set, num_taps=80)
        times = evaluation_times(many, seed=2)
        truth = narrow_tone_signal.evaluate(times)
        error_few = relative_reconstruction_error(truth, few.evaluate(times))
        error_many = relative_reconstruction_error(truth, many.evaluate(times))
        assert error_many < error_few

    def test_wrong_delay_degrades_reconstruction(self, fast_sample_set, narrow_tone_signal):
        right = NonuniformReconstructor(fast_sample_set, num_taps=60)
        wrong = NonuniformReconstructor(fast_sample_set, assumed_delay=DELAY + 10e-12, num_taps=60)
        times = evaluation_times(right, seed=3)
        truth = narrow_tone_signal.evaluate(times)
        assert relative_reconstruction_error(truth, wrong.evaluate(times)) > 3.0 * (
            relative_reconstruction_error(truth, right.evaluate(times)) + 1e-6
        )

    def test_linearity(self, paper_band):
        """Reconstruction is linear: reconstructing a scaled signal scales the output."""
        tone = single_tone(1.01e9, amplitude=0.5)
        sampler = IdealNonuniformSampler(paper_band, delay=DELAY)
        base = sampler.acquire(tone, num_samples=200)
        scaled = base.with_channels(2.0 * base.on_grid, 2.0 * base.delayed)
        times = evaluation_times(NonuniformReconstructor(base), seed=4, count=50)
        np.testing.assert_allclose(
            NonuniformReconstructor(scaled).evaluate(times),
            2.0 * NonuniformReconstructor(base).evaluate(times),
            rtol=1e-9,
        )

    def test_plan_matches_class(self, fast_sample_set):
        reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=60)
        times = evaluation_times(reconstructor, count=20, seed=9)
        plan = ReconstructionPlan(fast_sample_set, times, num_taps=60)
        np.testing.assert_array_equal(
            plan.evaluate(fast_sample_set.delay), reconstructor.evaluate(times)
        )


class TestReconstructorConfiguration:
    def test_odd_num_taps_rejected(self, fast_sample_set):
        with pytest.raises(ValidationError):
            NonuniformReconstructor(fast_sample_set, num_taps=61)

    def test_valid_time_range_inside_record(self, fast_sample_set):
        reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=60)
        low, high = reconstructor.valid_time_range()
        assert low > fast_sample_set.start_time
        assert high < fast_sample_set.end_time
        assert high > low

    def test_assumed_delay_property(self, fast_sample_set):
        reconstructor = NonuniformReconstructor(fast_sample_set, assumed_delay=150e-12)
        assert reconstructor.assumed_delay == pytest.approx(150e-12)
        default = NonuniformReconstructor(fast_sample_set)
        assert default.assumed_delay == pytest.approx(fast_sample_set.delay)

    @pytest.mark.parametrize("window", ["kaiser", "hann", "hamming", "blackman", "rectangular"])
    def test_all_windows_reconstruct(self, fast_sample_set, narrow_tone_signal, window):
        # The reconstructor tapers with the paper's Kaiser window; the oracle
        # sweeps the others (the window ablation).
        reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=60)
        times = evaluation_times(reconstructor, count=100, seed=11)
        error = relative_reconstruction_error(
            narrow_tone_signal.evaluate(times),
            reference_evaluate(fast_sample_set, times, num_taps=60, window=window),
        )
        assert error < 5e-2

    def test_non_sample_set_rejected(self):
        with pytest.raises(ValidationError):
            NonuniformReconstructor("not a sample set")
