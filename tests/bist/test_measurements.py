"""Tests for repro.bist.measurements."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bist import (
    measure_acpr,
    measure_occupied_bandwidth,
    measure_spectrum_from_samples,
    reconstructed_envelope,
    render_uniform,
)
from repro.bist.measurements import envelope_from_dense_samples
from repro.dsp.filters import lowpass_fir
from repro.errors import MeasurementError, ValidationError
from repro.sampling import BandpassBand, IdealNonuniformSampler, NonuniformReconstructor
from repro.signals import single_tone


BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
TONE_FREQUENCY = 1.004e9


@pytest.fixture(scope="module")
def tone_reconstructor():
    tone = single_tone(TONE_FREQUENCY, amplitude=0.7)
    sampler = IdealNonuniformSampler(BAND, delay=180e-12)
    sample_set = sampler.acquire(tone, num_samples=500)
    return NonuniformReconstructor(sample_set, num_taps=60)


def tone_spectrum(reconstructor):
    """Welch PSD of the reconstruction rendered over its valid range."""
    low, high = reconstructor.valid_time_range()
    _, samples, rate = render_uniform(reconstructor, low, high)
    return measure_spectrum_from_samples(samples, rate, bandwidth_hz=BAND.bandwidth)


class TestRenderUniform:
    def test_default_rate_above_carrier_nyquist(self, tone_reconstructor):
        low, high = tone_reconstructor.valid_time_range()
        _, _, rate = render_uniform(tone_reconstructor, low, high)
        assert rate >= 2.0 * BAND.f_high

    def test_samples_match_reconstruction(self, tone_reconstructor):
        low, high = tone_reconstructor.valid_time_range()
        times, samples, _ = render_uniform(tone_reconstructor, low, low + 0.2e-6)
        np.testing.assert_allclose(samples, tone_reconstructor.evaluate(times))

    def test_interval_clipped_to_valid_range(self, tone_reconstructor):
        times, _, _ = render_uniform(tone_reconstructor, 0.0, 1.0)
        low, high = tone_reconstructor.valid_time_range()
        assert times[0] >= low
        assert times[-1] <= high

    def test_empty_interval_rejected(self, tone_reconstructor):
        low, _ = tone_reconstructor.valid_time_range()
        with pytest.raises(MeasurementError):
            render_uniform(tone_reconstructor, low, low)

    def test_type_check(self):
        with pytest.raises(ValidationError):
            render_uniform("reconstructor", 0.0, 1.0)


class TestSpectrumMeasurements:
    def test_tone_appears_at_rf_frequency(self, tone_reconstructor):
        spectrum = tone_spectrum(tone_reconstructor)
        peak_hz = spectrum.frequencies_hz[np.argmax(spectrum.psd)]
        assert peak_hz == pytest.approx(TONE_FREQUENCY, rel=2e-3)

    def test_acpr_of_clean_tone_low(self, tone_reconstructor):
        spectrum = tone_spectrum(tone_reconstructor)
        acpr = measure_acpr(spectrum, TONE_FREQUENCY, 5e6, channel_spacing_hz=10e6)
        assert acpr["worst_db"] < -20.0

    def test_occupied_bandwidth_of_tone_narrow(self, tone_reconstructor):
        spectrum = tone_spectrum(tone_reconstructor)
        obw = measure_occupied_bandwidth(spectrum, TONE_FREQUENCY, search_half_width_hz=40e6)
        assert obw < 5e6

    def test_occupied_bandwidth_window_check(self, tone_reconstructor):
        spectrum = tone_spectrum(tone_reconstructor)
        with pytest.raises(MeasurementError):
            measure_occupied_bandwidth(spectrum, 5e9, search_half_width_hz=1e3)


class TestReconstructedEnvelope:
    def test_tone_envelope_is_offset_exponential(self, tone_reconstructor):
        low, high = tone_reconstructor.valid_time_range()
        times, envelope = reconstructed_envelope(
            tone_reconstructor,
            carrier_frequency_hz=1.0e9,
            start_time=low,
            stop_time=high,
            envelope_rate=90e6,
        )
        # The tone at fc + 4 MHz has a complex envelope rotating at +4 MHz with
        # amplitude 0.7; check magnitude and rotation rate away from the edges.
        interior = slice(40, -40)
        magnitudes = np.abs(envelope[interior])
        np.testing.assert_allclose(magnitudes, 0.7, rtol=0.05)
        phase_rate = np.diff(np.unwrap(np.angle(envelope[interior]))) * 90e6 / (2 * np.pi)
        np.testing.assert_allclose(np.median(phase_rate), 4e6, rtol=0.05)

    def test_invalid_carrier(self, tone_reconstructor):
        low, high = tone_reconstructor.valid_time_range()
        with pytest.raises(ValidationError):
            reconstructed_envelope(tone_reconstructor, 0.0, low, high, envelope_rate=90e6)


class TestEnvelopeFromDenseSamples:
    def test_non_integer_rate_ratio_rejected(self, tone_reconstructor):
        """4 x f_high = 4.18 GHz is 52.25 x 80 MHz: decimating by 52 would
        return samples 80.38 MHz apart labelled as 80 MHz."""
        low, high = tone_reconstructor.valid_time_range()
        times, samples, rate = render_uniform(tone_reconstructor, low, high)
        with pytest.raises(ValidationError, match="integer multiple"):
            envelope_from_dense_samples(
                times, samples, rate, carrier_frequency_hz=1.0e9, envelope_rate=80e6
            )


def convolve_then_slice_envelope(times, samples, dense_rate, carrier_frequency_hz, envelope_rate):
    """The reference: filter every dense sample, then keep one in ``decimation``."""
    decimation = int(round(dense_rate / envelope_rate))
    analytic = samples * np.exp(-2j * np.pi * carrier_frequency_hz * times)
    cutoff = min(envelope_rate / 2.0, carrier_frequency_hz * 0.8)
    taps = lowpass_fir(cutoff, dense_rate, num_taps=129)
    filtered = np.convolve(analytic, taps.astype(complex))
    bulk = (len(taps) - 1) // 2
    filtered = filtered[bulk : bulk + samples.size]
    return times[::decimation], 2.0 * filtered[::decimation]


# 27 and 25 are the single-carrier and an OFDM profile's dense-to-envelope
# ratios; records from one sample to past the 129-tap filter's length.
@pytest.mark.parametrize("decimation", [1, 25, 27, 64])
@settings(max_examples=30, deadline=None)
@given(
    num_samples=st.integers(1, 3000),
    carrier_fraction=st.floats(0.02, 0.98),
    start=st.floats(-1e-6, 1e-6),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_samples=100, carrier_fraction=0.5, start=0.0, seed=0)
def test_decimating_filter_equals_filtering_every_sample(
    decimation, num_samples, carrier_fraction, start, seed
):
    envelope_rate = 160e6
    dense_rate = decimation * envelope_rate
    times = start + np.arange(num_samples) / dense_rate
    samples = np.random.default_rng(seed).standard_normal(num_samples)
    # Below the dense Nyquist rate, and low enough at decimation 1 that the
    # filter's cutoff, 0.8 of the carrier, is too.
    carrier = carrier_fraction * dense_rate / 2.0
    times_out, envelope = envelope_from_dense_samples(
        times, samples, dense_rate, carrier_frequency_hz=carrier, envelope_rate=envelope_rate
    )
    expected_times, expected = convolve_then_slice_envelope(
        times, samples, dense_rate, carrier, envelope_rate
    )
    assert np.array_equal(times_out, expected_times)
    assert envelope.shape == expected.shape
    np.testing.assert_allclose(
        envelope, expected, rtol=0.0, atol=1e-14 * np.max(np.abs(expected))
    )
