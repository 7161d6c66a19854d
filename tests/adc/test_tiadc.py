"""Tests for repro.adc.tiadc (DCDE and BP-TIADC)."""

import numpy as np
import pytest

from repro.adc import (
    AdcChannel,
    BpTiadc,
    ChannelMismatch,
    DigitallyControlledDelayElement,
    UniformQuantizer,
)
from repro.dsp import relative_reconstruction_error
from repro.errors import ConfigurationError, ValidationError
from repro.sampling import BandpassBand, NonuniformReconstructor
from repro.signals import multitone_in_band


BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
SIGNAL = multitone_in_band(BAND.centre - 7e6, BAND.centre + 7e6, 7, amplitude=0.25, seed=3)


def make_adc(**kwargs):
    defaults = dict(
        sample_rate=90e6,
        dcde=DigitallyControlledDelayElement(),
        channel0=AdcChannel(quantizer=UniformQuantizer(12, 2.0)),
        channel1=AdcChannel(quantizer=UniformQuantizer(12, 2.0)),
        seed=42,
    )
    defaults.update(kwargs)
    return BpTiadc(**defaults)


class TestDcde:
    def test_code_round_trip(self):
        dcde = DigitallyControlledDelayElement(resolution_seconds=1e-12)
        code = dcde.code_for_delay(180e-12)
        assert dcde.programmed_delay(code) == pytest.approx(180e-12)

    def test_quantised_to_resolution(self):
        dcde = DigitallyControlledDelayElement(resolution_seconds=5e-12)
        code = dcde.code_for_delay(182e-12)
        assert dcde.programmed_delay(code) == pytest.approx(180e-12)

    def test_static_error_in_actual_delay(self):
        dcde = DigitallyControlledDelayElement(static_error_seconds=4e-12)
        code = dcde.code_for_delay(100e-12)
        assert dcde.actual_delay(code) - dcde.programmed_delay(code) == pytest.approx(4e-12)

    def test_out_of_range_rejected(self):
        dcde = DigitallyControlledDelayElement()
        with pytest.raises(ConfigurationError):
            dcde.code_for_delay(2.5e-9)

    def test_num_codes(self):
        # The 2 ns range in 5 ps steps, both ends included.
        dcde = DigitallyControlledDelayElement(resolution_seconds=5e-12)
        assert dcde.num_codes == 401

    def test_invalid_code(self):
        dcde = DigitallyControlledDelayElement(resolution_seconds=5e-12)
        with pytest.raises(ConfigurationError):
            dcde.programmed_delay(401)


class TestBpTiadc:
    def test_programmed_vs_true_delay(self):
        adc = make_adc(
            dcde=DigitallyControlledDelayElement(static_error_seconds=5e-12),
            channel1=AdcChannel(
                quantizer=UniformQuantizer(12, 2.0),
                mismatch=ChannelMismatch(skew_seconds=2e-12),
            ),
        )
        adc.program_delay(180e-12)
        assert adc.programmed_delay == pytest.approx(180e-12)
        assert adc.true_delay == pytest.approx(187e-12)

    def test_acquire_without_programming_rejected(self):
        adc = make_adc()
        with pytest.raises(ConfigurationError):
            adc.acquire(SIGNAL, BAND, num_samples=64)

    def test_acquired_sample_set_metadata(self):
        adc = make_adc()
        adc.program_delay(180e-12)
        sample_set = adc.acquire(SIGNAL, BAND, num_samples=128, start_time=1e-6)
        assert len(sample_set) == 128
        assert sample_set.sample_period == pytest.approx(1.0 / 90e6)
        assert sample_set.start_time == pytest.approx(1e-6)
        assert sample_set.delay == pytest.approx(adc.true_delay)
        assert sample_set.band.bandwidth == pytest.approx(90e6)

    def test_acquisition_supports_reconstruction(self):
        adc = make_adc()
        adc.program_delay(180e-12)
        sample_set = adc.acquire(SIGNAL, BAND, num_samples=360)
        reconstructor = NonuniformReconstructor(sample_set, num_taps=60)
        low, high = reconstructor.valid_time_range()
        times = np.random.default_rng(0).uniform(low, high, 200)
        error = relative_reconstruction_error(SIGNAL.evaluate(times), reconstructor.evaluate(times))
        assert error < 0.01  # 12-bit, no jitter: sub-percent reconstruction

    def test_offset_gain_mismatch_visible(self):
        adc = make_adc(
            channel1=AdcChannel(
                quantizer=UniformQuantizer(12, 2.0),
                mismatch=ChannelMismatch(offset=0.1, gain_error=0.05),
            ),
        )
        adc.program_delay(180e-12)
        sample_set = adc.acquire(SIGNAL, BAND, num_samples=512)
        assert abs(np.mean(sample_set.delayed) - np.mean(sample_set.on_grid)) > 0.05

    def test_skew_jitter_degrades_acquisition(self):
        clean = make_adc(seed=7)
        clean.program_delay(180e-12)
        jittery = make_adc(skew_jitter_rms_seconds=10e-12, seed=7)
        jittery.program_delay(180e-12)
        clean_set = clean.acquire(SIGNAL, BAND, num_samples=256)
        jittery_set = jittery.acquire(SIGNAL, BAND, num_samples=256)
        # Channel 0 identical (same clock), channel 1 perturbed by the skew jitter.
        np.testing.assert_allclose(clean_set.on_grid, jittery_set.on_grid, atol=1e-3)
        assert not np.allclose(clean_set.delayed, jittery_set.delayed, atol=1e-3)

    def test_reduced_rate_clone_shares_hardware(self):
        adc = make_adc()
        adc.program_delay(180e-12)
        slow = adc.with_sample_rate(45e6)
        assert slow.sample_rate == pytest.approx(45e6)
        assert slow.channel0 is adc.channel0
        assert slow.true_delay == pytest.approx(adc.true_delay)
        sample_set = slow.acquire(SIGNAL, BAND, num_samples=64)
        assert sample_set.band.bandwidth == pytest.approx(45e6)
        assert sample_set.band.centre == pytest.approx(BAND.centre)

    def test_invalid_signal_type(self):
        adc = make_adc()
        adc.program_delay(100e-12)
        with pytest.raises(ValidationError):
            adc.acquire(np.ones(16), BAND, num_samples=16)
