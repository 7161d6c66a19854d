"""Tests for repro.rf.mixer and repro.rf.filters."""

import numpy as np
import pytest

from repro.dsp import zero_phase_butterworth
from repro.errors import ValidationError
from repro.rf import (
    AnalogBandpass,
    DcOffset,
    IqImbalance,
    LocalOscillator,
    PhaseNoiseModel,
    QuadratureModulator,
)
from repro.signals import ComplexEnvelope


def tone_envelope(offset_hz, rate=100e6, num=4096, amplitude=1.0):
    t = np.arange(num) / rate
    return ComplexEnvelope(amplitude * np.exp(2j * np.pi * offset_hz * t), rate)


def noise_envelope(seed, rate=100e6, num=2048):
    rng = np.random.default_rng(seed)
    return ComplexEnvelope(rng.standard_normal(num) + 1j * rng.standard_normal(num), rate, start_time=1e-6)


class TestAnalogBandpass:
    def test_centred_filter_keeps_inband(self):
        envelope = tone_envelope(3e6)
        filtered = AnalogBandpass(bandwidth_hz=20e6).apply(envelope)
        assert filtered.mean_power() == pytest.approx(envelope.mean_power(), rel=0.05)

    def test_centred_filter_rejects_far_out(self):
        envelope = tone_envelope(45e6)
        filtered = AnalogBandpass(bandwidth_hz=20e6).apply(envelope)
        assert filtered.mean_power() < 0.05 * envelope.mean_power()

    def test_offset_filter_moves_passband(self):
        # Filter centred +30 MHz from the carrier: a +30 MHz envelope tone passes,
        # a -30 MHz tone is rejected.
        passband_tone = tone_envelope(30e6)
        stopband_tone = tone_envelope(-30e6)
        bandpass = AnalogBandpass(bandwidth_hz=10e6, centre_offset_hz=30e6)
        assert bandpass.apply(passband_tone).mean_power() == pytest.approx(
            passband_tone.mean_power(), rel=0.05
        )
        assert bandpass.apply(stopband_tone).mean_power() < 0.05 * stopband_tone.mean_power()

    def test_centred_apply_is_the_zero_phase_butterworth_at_half_bandwidth(self):
        envelope = noise_envelope(2)
        filtered = AnalogBandpass(bandwidth_hz=20e6, order=4).apply(envelope)
        np.testing.assert_array_equal(
            filtered.samples, zero_phase_butterworth(envelope.samples, 10e6, envelope.sample_rate, 4)
        )

    def test_offset_filter_wider_than_band_only_shifts(self):
        # Half the bandwidth exceeds Nyquist: the shift down and back cancel out.
        envelope = noise_envelope(3)
        filtered = AnalogBandpass(bandwidth_hz=150e6, centre_offset_hz=5e6).apply(envelope)
        np.testing.assert_allclose(filtered.samples, envelope.samples, atol=1e-12)

    def test_type_check(self):
        with pytest.raises(ValidationError):
            AnalogBandpass(bandwidth_hz=20e6).apply(np.ones(10))


class TestQuadratureModulator:
    def make_modulator(self, **kwargs):
        return QuadratureModulator(
            local_oscillator=LocalOscillator(frequency_hz=1e9), **kwargs
        )

    def test_ideal_modulator_preserves_envelope(self):
        envelope = tone_envelope(5e6)
        impaired = self.make_modulator().impair_envelope(envelope)
        np.testing.assert_allclose(impaired.samples, envelope.samples)

    def test_impairments_applied(self):
        envelope = tone_envelope(5e6)
        modulator = self.make_modulator(
            iq_imbalance=IqImbalance(gain_imbalance_db=1.0, phase_imbalance_deg=3.0),
            dc_offset=DcOffset(i_offset=0.1),
        )
        impaired = modulator.impair_envelope(envelope)
        assert not np.allclose(impaired.samples, envelope.samples)
        assert np.mean(impaired.samples).real == pytest.approx(0.1, abs=5e-3)

    def test_phase_noise_applied(self):
        envelope = tone_envelope(5e6)
        modulator = QuadratureModulator(
            local_oscillator=LocalOscillator(
                frequency_hz=1e9, phase_noise=PhaseNoiseModel(linewidth_hz=1e4), seed=0
            )
        )
        impaired = modulator.impair_envelope(envelope)
        assert not np.allclose(impaired.samples, envelope.samples)
        np.testing.assert_allclose(np.abs(impaired.samples), np.abs(envelope.samples), atol=1e-12)

    def test_invalid_lo_type(self):
        with pytest.raises(ValidationError):
            QuadratureModulator(local_oscillator="lo")
