"""Tests for repro.rf.noise and repro.rf.oscillator."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.rf import (
    AdditiveWhiteNoise,
    LocalOscillator,
    PhaseNoiseModel,
    add_noise_for_snr,
)
from repro.signals import ComplexEnvelope


def flat_envelope(num=8192, rate=100e6):
    return ComplexEnvelope(np.ones(num, dtype=complex), rate)


class TestAdditiveWhiteNoise:
    def test_zero_power_is_identity(self):
        envelope = flat_envelope()
        assert AdditiveWhiteNoise(power=0.0).apply(envelope) is envelope

    def test_noise_power_close_to_requested(self):
        envelope = flat_envelope()
        noisy = AdditiveWhiteNoise(power=0.25, seed=0).apply(envelope)
        measured = np.mean(np.abs(noisy.samples - envelope.samples) ** 2)
        assert measured == pytest.approx(0.25, rel=0.1)

    def test_reproducible_with_seed(self):
        envelope = flat_envelope(1024)
        a = AdditiveWhiteNoise(power=0.1, seed=3).apply(envelope)
        b = AdditiveWhiteNoise(power=0.1, seed=3).apply(envelope)
        np.testing.assert_allclose(a.samples, b.samples)

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            AdditiveWhiteNoise(power=-1.0)

    def test_snr_helper(self):
        envelope = flat_envelope()
        noisy = add_noise_for_snr(envelope, snr_db=20.0, seed=1)
        noise_power = np.mean(np.abs(noisy.samples - envelope.samples) ** 2)
        snr = 10.0 * np.log10(envelope.mean_power() / noise_power)
        assert snr == pytest.approx(20.0, abs=0.5)

    def test_snr_helper_zero_signal_rejected(self):
        silent = ComplexEnvelope(np.zeros(64, dtype=complex), 1e6)
        with pytest.raises(ValidationError):
            add_noise_for_snr(silent, 10.0)


class TestPhaseNoise:
    def test_ideal_model(self):
        assert PhaseNoiseModel().is_ideal
        assert not PhaseNoiseModel(linewidth_hz=100.0).is_ideal

    def test_ideal_oscillator_identity(self):
        envelope = flat_envelope()
        oscillator = LocalOscillator(frequency_hz=1e9)
        assert oscillator.apply_phase_noise(envelope) is envelope

    def test_magnitude_preserved(self):
        envelope = flat_envelope(4096)
        oscillator = LocalOscillator(
            frequency_hz=1e9,
            phase_noise=PhaseNoiseModel(linewidth_hz=1e3, rms_jitter_seconds=1e-12),
            seed=0,
        )
        noisy = oscillator.apply_phase_noise(envelope)
        np.testing.assert_allclose(np.abs(noisy.samples), 1.0, atol=1e-12)

    def test_wiener_phase_variance_grows(self):
        oscillator = LocalOscillator(
            frequency_hz=1e9, phase_noise=PhaseNoiseModel(linewidth_hz=10e3), seed=1
        )
        phase = oscillator.phase_realisation(20000, 100e6)
        early = np.var(phase[:2000])
        late = np.var(phase[-2000:] - np.mean(phase[-2000:]) + np.mean(phase[:2000]))
        assert np.abs(phase[-1] - phase[0]) >= 0.0  # random walk moved
        assert np.var(np.diff(phase)) > 0.0

    def test_white_jitter_phase_std(self):
        jitter = 3e-12
        oscillator = LocalOscillator(
            frequency_hz=1e9, phase_noise=PhaseNoiseModel(rms_jitter_seconds=jitter), seed=2
        )
        phase = oscillator.phase_realisation(50000, 100e6)
        expected_std = 2.0 * np.pi * 1e9 * jitter
        assert np.std(phase) == pytest.approx(expected_std, rel=0.05)

    def test_invalid_num_samples(self):
        oscillator = LocalOscillator(frequency_hz=1e9)
        with pytest.raises(ValidationError):
            oscillator.phase_realisation(0, 1e6)

    def test_negative_linewidth_rejected(self):
        with pytest.raises(ValidationError):
            PhaseNoiseModel(linewidth_hz=-1.0)
