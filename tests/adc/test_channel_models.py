"""Tests for repro.adc.mismatch, sample_hold and adc (single channel)."""

import numpy as np
import pytest

from repro.adc import AdcChannel, ChannelMismatch, SampleAndHold, UniformQuantizer
from repro.errors import ValidationError
from repro.signals import single_tone


TONE = single_tone(10e6, amplitude=0.8)


class TestChannelMismatch:
    def test_ideal_default(self):
        assert ChannelMismatch().is_ideal

    def test_gain_property(self):
        assert ChannelMismatch(gain_error=0.02).gain == pytest.approx(1.02)

    def test_apply_static(self):
        mismatch = ChannelMismatch(offset=0.5, gain_error=0.1)
        np.testing.assert_allclose(mismatch.apply_static(np.array([1.0, 2.0])), [1.6, 2.7])

    def test_with_input_bandwidth_folds_gain_and_delay(self):
        # One pole at the reference frequency: |H| = 1/sqrt(2) and the group
        # delay is (pi/4) / (2 pi f) = 1/(8 f).
        reference = 1.0e9
        mismatch = ChannelMismatch().with_input_bandwidth(reference, reference)
        assert mismatch.gain == pytest.approx(1.0 / np.sqrt(2.0))
        assert mismatch.skew_seconds == pytest.approx(1.0 / (8.0 * reference))

    def test_with_input_bandwidth_composes_with_existing_mismatch(self):
        base = ChannelMismatch(gain_error=0.1, skew_seconds=5e-12)
        folded = base.with_input_bandwidth(1.0e9, 1.0e9)
        assert folded.gain == pytest.approx(1.1 / np.sqrt(2.0))
        assert folded.skew_seconds == pytest.approx(5e-12 + 125e-12)

    def test_wide_bandwidth_nearly_transparent(self):
        mismatch = ChannelMismatch().with_input_bandwidth(1.0e12, 1.0e9)
        assert mismatch.gain == pytest.approx(1.0, abs=1e-5)
        assert mismatch.skew_seconds == pytest.approx(0.0, abs=1e-12)

    def test_with_input_bandwidth_validation(self):
        with pytest.raises(ValidationError):
            ChannelMismatch().with_input_bandwidth(0.0, 1e9)
        with pytest.raises(ValidationError):
            ChannelMismatch().with_input_bandwidth(1e9, -1.0)


class TestSampleAndHold:
    def test_ideal_timing(self):
        stage = SampleAndHold()
        times = np.arange(32) / 90e6
        np.testing.assert_allclose(stage.actual_sampling_times(times), times)

    def test_skew_shifts_all_edges(self):
        stage = SampleAndHold(mismatch=ChannelMismatch(skew_seconds=7e-12))
        times = np.arange(16) / 90e6
        np.testing.assert_allclose(stage.actual_sampling_times(times) - times, 7e-12)

    def test_sample_values_match_signal(self):
        stage = SampleAndHold()
        times = np.arange(64) / 90e6
        np.testing.assert_allclose(stage.sample(TONE, times), TONE.evaluate(times))

    def test_type_check(self):
        with pytest.raises(ValidationError):
            SampleAndHold().sample(np.ones(4), np.zeros(4))


class TestAdcChannel:
    def test_ideal_channel_quantizes_only(self):
        channel = AdcChannel(quantizer=UniformQuantizer(12, 1.0))
        times = np.arange(128) / 90e6
        converted = channel.convert(TONE, times)
        np.testing.assert_allclose(converted, TONE.evaluate(times), atol=2.0 / 4096)

    def test_offset_and_gain_visible(self):
        channel = AdcChannel(
            quantizer=UniformQuantizer(14, 2.0),
            mismatch=ChannelMismatch(offset=0.25, gain_error=0.1),
        )
        times = np.arange(256) / 90e6
        converted = channel.convert(TONE, times)
        expected = 1.1 * TONE.evaluate(times) + 0.25
        np.testing.assert_allclose(converted, expected, atol=4.0 / 2**14)

    def test_skew_changes_samples_of_fast_signal(self):
        fast_tone = single_tone(1.0e9, amplitude=0.9)
        aligned = AdcChannel(quantizer=UniformQuantizer(14, 1.0))
        skewed = AdcChannel(
            quantizer=UniformQuantizer(14, 1.0),
            mismatch=ChannelMismatch(skew_seconds=100e-12),
        )
        times = np.arange(64) / 90e6
        assert not np.allclose(aligned.convert(fast_tone, times), skewed.convert(fast_tone, times))

    def test_invalid_quantizer_type(self):
        with pytest.raises(ValidationError):
            AdcChannel(quantizer="10 bits")
