"""Tests for repro.calibration.gain_offset."""

import numpy as np
import pytest

from repro.adc import AdcChannel, BpTiadc, ChannelMismatch, DigitallyControlledDelayElement, UniformQuantizer
from repro.calibration import correct_gain_offset, estimate_gain_offset
from repro.errors import CalibrationError, ValidationError
from repro.sampling import BandpassBand
from repro.signals import multitone_in_band


BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
SIGNAL = multitone_in_band(BAND.centre - 7e6, BAND.centre + 7e6, 7, amplitude=0.25, seed=9)


def acquire_with_mismatch(offset1=0.08, gain_error1=0.05, num_samples=2048):
    adc = BpTiadc(
        sample_rate=90e6,
        dcde=DigitallyControlledDelayElement(),
        channel0=AdcChannel(quantizer=UniformQuantizer(14, 2.0)),
        channel1=AdcChannel(
            quantizer=UniformQuantizer(14, 2.0),
            mismatch=ChannelMismatch(offset=offset1, gain_error=gain_error1),
        ),
        seed=11,
    )
    adc.program_delay(180e-12)
    return adc.acquire(SIGNAL, BAND, num_samples=num_samples)


class TestEstimation:
    def test_offsets_recovered(self):
        sample_set = acquire_with_mismatch(offset1=0.08)
        estimate = estimate_gain_offset(sample_set)
        assert estimate.offset0 == pytest.approx(0.0, abs=5e-3)
        assert estimate.offset1 == pytest.approx(0.08, abs=5e-3)

    def test_relative_gain_recovered(self):
        sample_set = acquire_with_mismatch(gain_error1=0.05)
        estimate = estimate_gain_offset(sample_set)
        assert estimate.relative_gain == pytest.approx(1.05, rel=0.01)

    def test_matched_channels_report_unity(self):
        sample_set = acquire_with_mismatch(offset1=0.0, gain_error1=0.0)
        estimate = estimate_gain_offset(sample_set)
        assert estimate.relative_gain == pytest.approx(1.0, rel=0.01)
        assert estimate.offset1 == pytest.approx(0.0, abs=5e-3)

    def test_silent_channel_rejected(self, fast_sample_set):
        silent = fast_sample_set.with_channels(
            np.zeros_like(fast_sample_set.on_grid), fast_sample_set.delayed
        )
        with pytest.raises(CalibrationError):
            estimate_gain_offset(silent)

    def test_invalid_type(self):
        with pytest.raises(ValidationError):
            estimate_gain_offset("samples")


class TestCorrection:
    def test_correction_removes_mismatch(self):
        sample_set = acquire_with_mismatch(offset1=0.08, gain_error1=0.05)
        corrected = correct_gain_offset(sample_set)
        assert abs(np.mean(corrected.delayed)) < 5e-3
        assert np.std(corrected.delayed) == pytest.approx(np.std(corrected.on_grid), rel=0.02)

    def test_correction_preserves_metadata(self):
        sample_set = acquire_with_mismatch()
        corrected = correct_gain_offset(sample_set)
        assert corrected.delay == pytest.approx(sample_set.delay)
        assert corrected.sample_period == pytest.approx(sample_set.sample_period)

