"""Tests for repro.rf.amplifier."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.rf import IdealAmplifier, PolynomialAmplifier, RappAmplifier, SalehAmplifier
from repro.signals import ComplexEnvelope


def make_envelope(amplitude=0.1, num=512, rate=100e6):
    rng = np.random.default_rng(0)
    phases = rng.uniform(0, 2 * np.pi, num)
    return ComplexEnvelope(amplitude * np.exp(1j * phases), rate)


@pytest.mark.parametrize(
    "amplifier",
    [IdealAmplifier(gain_db=6.0), RappAmplifier(), SalehAmplifier(), PolynomialAmplifier()],
    ids=lambda amplifier: type(amplifier).__name__,
)
def test_apply_multiplies_each_sample_by_its_gain(amplifier):
    # The AM/AM and AM/PM tests below read the curves through ``gain``;
    # ``apply`` is what the transmitter runs.
    envelope = make_envelope(0.9)
    amplified = amplifier.apply(envelope)
    expected = envelope.samples * amplifier.gain(np.abs(envelope.samples))
    np.testing.assert_array_equal(amplified.samples, expected)
    assert amplified.sample_rate == envelope.sample_rate


class TestIdealAmplifier:
    def test_gain_applied(self):
        amplifier = IdealAmplifier(gain_db=20.0)
        envelope = make_envelope(0.1)
        amplified = amplifier.apply(envelope)
        assert amplified.mean_power() == pytest.approx(100.0 * envelope.mean_power())

    def test_no_distortion(self):
        amplifier = IdealAmplifier(gain_db=6.0)
        magnitudes = np.linspace(0.01, 10.0, 50)
        gains = np.abs(amplifier.gain(magnitudes))
        np.testing.assert_allclose(gains, gains[0])

    def test_no_phase_shift(self):
        amplifier = IdealAmplifier(gain_db=10.0)
        np.testing.assert_allclose(np.angle(amplifier.gain(np.linspace(0.1, 2.0, 10))), 0.0)


class TestRappAmplifier:
    def test_small_signal_gain(self):
        amplifier = RappAmplifier(gain_db=20.0, saturation_amplitude=1.0, smoothness=2.0)
        tiny = np.array([1e-4])
        assert np.abs(amplifier.gain(tiny))[0] == pytest.approx(10.0, rel=1e-3)

    def test_output_saturates(self):
        amplifier = RappAmplifier(gain_db=20.0, saturation_amplitude=1.0, smoothness=3.0)
        huge = np.array([100.0])
        assert np.abs(amplifier.gain(huge))[0] * huge[0] <= 1.0 * 1.01

    def test_monotone_transfer(self):
        amplifier = RappAmplifier(gain_db=15.0, saturation_amplitude=1.0)
        magnitudes = np.linspace(0.0, 5.0, 200)
        transfer = np.abs(amplifier.gain(magnitudes)) * magnitudes
        assert np.all(np.diff(transfer) >= -1e-12)

    def test_no_am_pm(self):
        amplifier = RappAmplifier()
        np.testing.assert_allclose(np.angle(amplifier.gain(np.linspace(0.01, 2.0, 20))), 0.0)

    def test_sharper_knee_with_higher_smoothness(self):
        soft = RappAmplifier(gain_db=20.0, saturation_amplitude=1.0, smoothness=1.0)
        hard = RappAmplifier(gain_db=20.0, saturation_amplitude=1.0, smoothness=10.0)
        at_knee = np.array([0.1])  # driven right at saturation
        assert np.abs(hard.gain(at_knee))[0] > np.abs(soft.gain(at_knee))[0]

    def test_compression_creates_spectral_regrowth(self):
        """A driven Rapp PA must widen the spectrum of a shaped signal."""
        from repro.dsp import welch_psd, band_power
        from repro.signals import PulseShaper, qpsk, root_raised_cosine_taps

        rng = np.random.default_rng(1)
        shaper = PulseShaper(8, root_raised_cosine_taps(8, span_symbols=10, rolloff=0.3))
        symbols = qpsk().map(rng.integers(0, 4, 512))
        envelope = ComplexEnvelope(shaper.shape_trimmed(symbols), 8e6).scaled_to_power(0.5)
        amplifier = RappAmplifier(gain_db=0.0, saturation_amplitude=0.8, smoothness=2.0)
        amplified = amplifier.apply(envelope)
        clean = welch_psd(envelope.samples, 8e6, segment_length=1024)
        distorted = welch_psd(amplified.samples, 8e6, segment_length=1024)
        # Out-of-band power (beyond 0.8 MHz from centre) grows.
        clean_oob = band_power(clean, 1.0e6, 3.9e6)
        distorted_oob = band_power(distorted, 1.0e6, 3.9e6)
        assert distorted_oob > 2.0 * clean_oob

    def test_invalid_saturation(self):
        with pytest.raises(ValidationError):
            RappAmplifier(saturation_amplitude=0.0)


class TestSalehAmplifier:
    def test_am_pm_present(self):
        amplifier = SalehAmplifier()
        assert abs(np.angle(amplifier.gain(np.array([0.5])))[0]) > 0.01

    def test_gain_compresses_at_high_drive(self):
        amplifier = SalehAmplifier()
        low = np.abs(amplifier.gain(np.array([0.05])))[0]
        high = np.abs(amplifier.gain(np.array([2.0])))[0]
        assert high < low

    def test_transfer_peaks_then_falls(self):
        amplifier = SalehAmplifier()
        magnitudes = np.linspace(0.01, 3.0, 300)
        transfer = np.abs(amplifier.gain(magnitudes)) * magnitudes
        peak_index = int(np.argmax(transfer))
        assert 0 < peak_index < magnitudes.size - 1

    def test_apply_preserves_length(self):
        envelope = make_envelope(0.3)
        assert len(SalehAmplifier().apply(envelope)) == len(envelope)


class TestPolynomialAmplifier:
    def test_gain_is_the_odd_order_polynomial(self):
        amplifier = PolynomialAmplifier()
        magnitudes = np.linspace(0.01, 1.0, 20)
        squared = magnitudes**2
        expected = amplifier.a1 + amplifier.a3 * squared + amplifier.a5 * squared**2
        np.testing.assert_allclose(amplifier.gain(magnitudes), expected)

    def test_third_order_compression(self):
        amplifier = PolynomialAmplifier()
        assert np.abs(amplifier.gain(np.array([1.0])))[0] < abs(amplifier.a1)

    def test_apply_type_check(self):
        with pytest.raises(ValidationError):
            PolynomialAmplifier().apply(np.ones(16))
