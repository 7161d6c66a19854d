"""Tests for repro.dsp.filters."""

import numpy as np
import pytest
from scipy import signal

from repro.dsp import filters, lowpass_fir, zero_phase_butterworth
from repro.errors import ValidationError
from repro.transmitter import HomodyneTransmitter, TransmitterConfig


RATE = 100e6


class TestLowpassDesign:
    def test_dc_gain_unity(self):
        taps = lowpass_fir(10e6, RATE, num_taps=101)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_passband_and_stopband(self):
        taps = lowpass_fir(10e6, RATE, num_taps=201)
        magnitude = np.abs(np.fft.rfft(taps, n=2048))
        freqs = np.fft.rfftfreq(2048, d=1.0 / RATE)
        assert np.all(magnitude[freqs < 7e6] > 0.95)
        assert np.all(magnitude[freqs > 15e6] < 0.02)

    def test_even_taps_rejected(self):
        with pytest.raises(ValidationError):
            lowpass_fir(10e6, RATE, num_taps=100)

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            lowpass_fir(60e6, RATE)

    def test_linear_phase_symmetry(self):
        taps = lowpass_fir(10e6, RATE, num_taps=101)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)


def tone(freq_hz, num=4096, rate=RATE):
    return np.exp(2j * np.pi * freq_hz * np.arange(num) / rate)


def steady(samples):
    """The middle half of a record, clear of the forward-backward edge transients."""
    quarter = samples.size // 4
    return samples[quarter:-quarter]


class TestZeroPhaseButterworth:
    def test_matches_forward_backward_sos_reference(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        sos = signal.butter(5, 10e6 / (RATE / 2.0), btype="low", output="sos")
        expected = signal.sosfiltfilt(sos, samples.real) + 1j * signal.sosfiltfilt(sos, samples.imag)
        np.testing.assert_array_equal(zero_phase_butterworth(samples, 10e6, RATE, 5), expected)

    def test_length_preserved_and_output_complex(self):
        out = zero_phase_butterworth(tone(1e6, num=777), 10e6, RATE, 4)
        assert out.shape == (777,)
        assert np.iscomplexobj(out)

    def test_passband_tone_unity(self):
        out = zero_phase_butterworth(tone(2e6), 10e6, RATE, 5)
        np.testing.assert_allclose(np.abs(steady(out)), 1.0, atol=1e-6)

    def test_stopband_tone_rejected(self):
        out = zero_phase_butterworth(tone(40e6), 10e6, RATE, 5)
        assert np.max(np.abs(steady(out))) < 1e-5

    def test_tone_at_cutoff_is_six_db_down(self):
        # -3 dB per pass, and the record is filtered forward and backward.
        out = zero_phase_butterworth(tone(10e6), 10e6, RATE, 5)
        np.testing.assert_allclose(np.abs(steady(out)), 0.5, atol=1e-4)

    def test_no_phase_shift(self):
        record = tone(7e6)
        out = zero_phase_butterworth(record, 10e6, RATE, 5)
        np.testing.assert_allclose(np.angle(steady(out) / steady(record)), 0.0, atol=1e-9)

    def test_higher_order_is_sharper(self):
        record = tone(20e6)
        gentle = np.max(np.abs(steady(zero_phase_butterworth(record, 10e6, RATE, 2))))
        sharp = np.max(np.abs(steady(zero_phase_butterworth(record, 10e6, RATE, 6))))
        assert sharp < 0.01 * gentle

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(5)
        out = zero_phase_butterworth(rng.standard_normal(500).astype(complex), 10e6, RATE, 5)
        np.testing.assert_array_equal(out.imag, 0.0)

    def test_real_and_imaginary_parts_filtered_separately(self):
        rng = np.random.default_rng(7)
        real, imag = rng.standard_normal(500), rng.standard_normal(500)
        out = zero_phase_butterworth(real + 1j * imag, 10e6, RATE, 5)
        np.testing.assert_array_equal(out.real, zero_phase_butterworth(real + 0j, 10e6, RATE, 5).real)
        np.testing.assert_array_equal(out.imag, zero_phase_butterworth(imag + 0j, 10e6, RATE, 5).real)

    def test_linear(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        b = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        combined = zero_phase_butterworth(2.0 * a - 3j * b, 10e6, RATE, 5)
        separate = 2.0 * zero_phase_butterworth(a, 10e6, RATE, 5) - 3j * zero_phase_butterworth(b, 10e6, RATE, 5)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_transmit_is_bit_identical_with_the_design_cache_cold_or_warm(self):
        # The chain's analog filters design their sections once per
        # (order, cutoff); a warm cache must hand out the same sections.
        def transmit():
            burst = HomodyneTransmitter(TransmitterConfig.paper_default(seed=5)).transmit(64)
            return burst.output_envelope.samples

        filters._butterworth_sos.cache_clear()
        cold = transmit()
        assert filters._butterworth_sos.cache_info().misses > 0
        warm = transmit()
        assert filters._butterworth_sos.cache_info().hits > 0
        assert np.array_equal(cold, warm)
