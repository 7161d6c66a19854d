"""Tests for repro.rf.impairments."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.rf import DcOffset, IqImbalance
from repro.signals import ComplexEnvelope


def tone_envelope(offset_hz=5e6, rate=100e6, num=4096):
    t = np.arange(num) / rate
    return ComplexEnvelope(np.exp(2j * np.pi * offset_hz * t), rate)


class TestIqImbalance:
    def test_ideal_is_identity(self):
        envelope = tone_envelope()
        balanced = IqImbalance()
        assert balanced.is_ideal
        assert balanced.apply(envelope) is envelope

    def test_coefficients_ideal_case(self):
        balanced = IqImbalance()
        assert balanced.mu == pytest.approx(1.0)
        assert balanced.nu == pytest.approx(0.0)

    def test_image_created(self):
        """Gain/phase imbalance creates an image tone at the mirrored offset."""
        envelope = tone_envelope(offset_hz=5e6)
        impaired = IqImbalance(gain_imbalance_db=1.0, phase_imbalance_deg=5.0).apply(envelope)
        spectrum = np.fft.fftshift(np.fft.fft(impaired.samples))
        frequencies = np.fft.fftshift(np.fft.fftfreq(len(envelope), 1.0 / envelope.sample_rate))
        wanted_bin = np.argmin(np.abs(frequencies - 5e6))
        image_bin = np.argmin(np.abs(frequencies + 5e6))
        wanted = abs(spectrum[wanted_bin])
        image = abs(spectrum[image_bin])
        assert image > 0.01 * wanted

    def test_image_rejection_matches_mu_nu(self):
        """The image sits ``|mu|^2 / |nu|^2`` below the wanted tone."""
        imbalance = IqImbalance(gain_imbalance_db=0.5, phase_imbalance_deg=2.0)
        envelope = tone_envelope(offset_hz=5e6)
        impaired = imbalance.apply(envelope)
        spectrum = np.abs(np.fft.fftshift(np.fft.fft(impaired.samples))) ** 2
        frequencies = np.fft.fftshift(np.fft.fftfreq(len(envelope), 1.0 / envelope.sample_rate))
        wanted = spectrum[np.argmin(np.abs(frequencies - 5e6))]
        image = spectrum[np.argmin(np.abs(frequencies + 5e6))]
        measured_irr = 10.0 * np.log10(wanted / image)
        expected_irr = 10.0 * np.log10(abs(imbalance.mu) ** 2 / abs(imbalance.nu) ** 2)
        assert measured_irr == pytest.approx(expected_irr, abs=0.5)

    def test_power_approximately_preserved_for_small_imbalance(self):
        envelope = tone_envelope()
        impaired = IqImbalance(gain_imbalance_db=0.2, phase_imbalance_deg=1.0).apply(envelope)
        assert impaired.mean_power() == pytest.approx(envelope.mean_power(), rel=0.05)

    def test_type_check(self):
        with pytest.raises(ValidationError):
            IqImbalance(1.0, 1.0).apply(np.ones(8))


class TestDcOffset:
    def test_ideal_is_identity(self):
        envelope = tone_envelope()
        assert DcOffset().apply(envelope) is envelope

    def test_offset_added(self):
        envelope = tone_envelope()
        impaired = DcOffset(i_offset=0.1).apply(envelope)
        assert np.mean(impaired.samples).real == pytest.approx(0.1, abs=1e-3)
        assert np.mean(impaired.samples).imag == pytest.approx(0.0, abs=1e-3)

    def test_creates_carrier_spur(self):
        """DC offset appears as energy at zero envelope frequency (the carrier)."""
        envelope = tone_envelope(offset_hz=5e6)
        impaired = DcOffset(i_offset=0.2).apply(envelope)
        spectrum = np.abs(np.fft.fft(impaired.samples))
        assert spectrum[0] > 100.0 * np.abs(np.fft.fft(envelope.samples))[0] + 1.0

    def test_complex_offset_property(self):
        assert DcOffset(0.1).complex_offset == 0.1 + 0.0j

    def test_type_check(self):
        with pytest.raises(ValidationError):
            DcOffset(0.1).apply([1, 2, 3])
