"""Tests for repro.dsp.spectrum."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    SpectrumEstimate,
    adjacent_channel_power_ratio,
    band_power,
    occupied_bandwidth,
    periodogram,
    welch_psd,
)
from repro.errors import MeasurementError, MeasurementWarning, ValidationError
from repro.monitor import StreamingAccumulator


RATE = 100e6


def make_tone(frequency, amplitude=1.0, num=8192, complex_signal=False):
    n = np.arange(num)
    if complex_signal:
        return amplitude * np.exp(2j * np.pi * frequency * n / RATE)
    return amplitude * np.cos(2 * np.pi * frequency * n / RATE)


class TestPeriodogram:
    def test_peak_at_tone_frequency(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        peak_hz = estimate.frequencies_hz[np.argmax(estimate.psd)]
        assert peak_hz == pytest.approx(12.5e6, abs=2 * estimate.resolution_hz)

    def test_total_power_matches_time_domain(self):
        signal = make_tone(12.5e6, amplitude=2.0)
        estimate = periodogram(signal, RATE)
        integrated = np.sum(estimate.psd) * estimate.resolution_hz
        assert integrated == pytest.approx(np.mean(signal**2), rel=0.05)

    def test_two_sided_for_complex_input(self):
        estimate = periodogram(make_tone(10e6, complex_signal=True), RATE)
        assert estimate.two_sided
        assert estimate.frequencies_hz[0] < 0.0

    def test_one_sided_for_real_input(self):
        estimate = periodogram(make_tone(10e6), RATE)
        assert not estimate.two_sided
        assert estimate.frequencies_hz[0] >= 0.0

    def test_complex_tone_power_preserved(self):
        signal = make_tone(10e6, amplitude=1.5, complex_signal=True)
        estimate = periodogram(signal, RATE)
        integrated = np.sum(estimate.psd) * estimate.resolution_hz
        assert integrated == pytest.approx(np.mean(np.abs(signal) ** 2), rel=0.05)

    def test_short_record_rejected(self):
        with pytest.raises(ValidationError):
            periodogram(np.ones(4), RATE)

    def test_normalised_db_peak_is_zero(self):
        estimate = periodogram(make_tone(10e6), RATE)
        assert np.max(estimate.normalised_db()) == pytest.approx(0.0)


class TestWelch:
    def test_variance_reduction(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=16384)
        single = periodogram(noise, RATE)
        averaged = welch_psd(noise, RATE, segment_length=1024)
        assert np.std(averaged.psd) < np.std(single.psd)

    def test_white_noise_level(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(0.0, 1.0, size=65536)
        estimate = welch_psd(noise, RATE, segment_length=2048)
        # White noise of unit variance: PSD ~ 2/fs (one-sided).
        expected = 2.0 / RATE
        assert np.median(estimate.psd) == pytest.approx(expected, rel=0.15)

    def test_segment_longer_than_record_clipped_with_warning(self):
        # The clamp degrades the estimate to a single periodogram; since the
        # monitor accumulates estimates over hours, the degradation must be
        # loud (MeasurementWarning), not silent.
        with pytest.warns(MeasurementWarning, match="no variance reduction"):
            estimate = welch_psd(make_tone(10e6, num=512), RATE, segment_length=4096)
        peak_hz = estimate.frequencies_hz[np.argmax(estimate.psd)]
        assert peak_hz == pytest.approx(10e6, abs=3 * estimate.resolution_hz)

    def test_exact_fit_segment_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", MeasurementWarning)
            welch_psd(make_tone(10e6, num=512), RATE, segment_length=512)

    def test_tail_samples_are_excluded(self):
        # 1000 samples with 512-sample segments and 50% overlap: segments
        # start at 0 and 256; the 232-sample tail does not contribute.
        rng = np.random.default_rng(3)
        noise = rng.normal(size=1000)
        full = welch_psd(noise, RATE, segment_length=512)
        trimmed = welch_psd(noise[: 256 + 512], RATE, segment_length=512)
        np.testing.assert_array_equal(full.psd, trimmed.psd)


def segment_loop_welch(samples, segment_length):
    """The Welch definition spelled out: one ``periodogram`` per segment.

    Segments are clamped to the record and start every
    ``round(L / 2)`` samples, as in :func:`welch_psd`;
    their PSDs are summed in segment order and divided by the count.
    """
    length = min(segment_length, samples.size)
    step = int(round(length * 0.5))
    total = None
    count = 0
    for start in range(0, samples.size - length + 1, step):
        psd = periodogram(samples[start : start + length], RATE).psd
        total = psd.copy() if total is None else total + psd
        count += 1
    return total / count


class TestBatchedWelchMatchesSegmentLoop:
    """The batched Welch path (one FFT over every segment) against the
    one-segment-at-a-time definition, bit for bit: in ``welch_psd`` and in a
    ``StreamingAccumulator`` fed the record in generated blocks."""

    @given(
        size=st.integers(min_value=8, max_value=3000),
        complex_domain=st.booleans(),
        segment_length=st.integers(min_value=8, max_value=300),
        block_sizes=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_batched_welch_equals_per_segment_periodograms(
        self, size, complex_domain, segment_length, block_sizes, seed
    ):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(size)
        if complex_domain:
            samples = samples + 1j * rng.standard_normal(size)
        expected = segment_loop_welch(samples, segment_length)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MeasurementWarning)
            batch = welch_psd(samples, RATE, segment_length)
            accumulator = StreamingAccumulator(RATE, segment_length)
            start, index = 0, 0
            while start < size:
                stop = start + block_sizes[index % len(block_sizes)]
                accumulator.ingest(samples[start:stop])
                start, index = stop, index + 1
            streamed = accumulator.finalize()

        assert np.array_equal(batch.psd, expected)
        assert np.array_equal(streamed.psd, expected)


class TestBandPower:
    def test_tone_power_in_band(self):
        estimate = periodogram(make_tone(12.5e6, amplitude=2.0), RATE)
        power = band_power(estimate, 12e6, 13e6)
        assert power == pytest.approx(2.0, rel=0.05)

    def test_out_of_band_power_small(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        assert band_power(estimate, 30e6, 40e6) < 1e-3

    def test_invalid_band_rejected(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        with pytest.raises(ValidationError):
            band_power(estimate, 13e6, 12e6)

    def test_sub_resolution_band_uses_fractional_bin_coverage(self):
        # Regression: a band narrower than the bin spacing used to integrate
        # to exactly 0.0 (no bin centre inside it), silently under-reporting
        # the power.  It must now receive the fractional rectangle coverage
        # of the bin(s) it overlaps.
        estimate = periodogram(make_tone(12.5e6, amplitude=2.0), RATE)
        resolution = estimate.resolution_hz
        # A band a tenth of a bin wide, centred between two bin centres near
        # the tone, so no bin centre can fall inside it.
        centre = 12.5e6 + resolution / 2.0
        low, high = centre - resolution / 20.0, centre + resolution / 20.0
        assert not np.any(
            (estimate.frequencies_hz >= low) & (estimate.frequencies_hz <= high)
        )
        power = band_power(estimate, low, high)
        assert power > 0.0
        # Fractional coverage: a tenth of the two neighbouring rectangles.
        index = int(np.searchsorted(estimate.frequencies_hz, centre))
        expected = (high - low) / 2.0 * (
            estimate.psd[index - 1] + estimate.psd[index]
        )
        assert power == pytest.approx(expected)

    def test_sub_resolution_band_scales_with_width(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        resolution = estimate.resolution_hz
        centre = 12.5e6 + resolution / 2.0
        narrow = band_power(estimate, centre - resolution / 40.0, centre + resolution / 40.0)
        wide = band_power(estimate, centre - resolution / 20.0, centre + resolution / 20.0)
        assert wide == pytest.approx(2.0 * narrow)

    def test_band_outside_covered_span_is_zero(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        nyquist = estimate.frequencies_hz[-1]
        assert band_power(estimate, nyquist + 1e6, nyquist + 2e6) == 0.0


class TestOccupiedBandwidth:
    def test_narrow_tone(self):
        estimate = periodogram(make_tone(12.5e6), RATE)
        bandwidth, low, high = occupied_bandwidth(estimate)
        assert bandwidth < 1e6
        assert low < 12.5e6 < high

    def test_wideband_noise(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=65536)
        estimate = welch_psd(noise, RATE, segment_length=2048)
        bandwidth, _, _ = occupied_bandwidth(estimate)
        assert bandwidth > 0.9 * 0.99 * RATE / 2.0


class TestAcpr:
    def test_clean_tone_has_low_acpr(self):
        estimate = periodogram(make_tone(25e6), RATE)
        result = adjacent_channel_power_ratio(estimate, 25e6, 2e6, offset_hz=5e6)
        assert result["worst_db"] < -30.0

    def test_interferer_raises_acpr(self):
        signal = make_tone(25e6) + 0.5 * make_tone(30e6)
        estimate = periodogram(signal, RATE)
        result = adjacent_channel_power_ratio(estimate, 25e6, 2e6, offset_hz=5e6)
        assert result["upper_db"] > -10.0
        assert result["worst_db"] == pytest.approx(result["upper_db"])

    def test_no_main_power_rejected(self):
        # A main channel entirely outside the estimate's covered span has
        # genuinely zero power (a narrow in-band channel now snaps to its
        # bin rectangle instead — see TestBandPower).
        estimate = periodogram(make_tone(25e6), RATE)
        with pytest.raises(MeasurementError):
            adjacent_channel_power_ratio(estimate, 60e6, 1e3, offset_hz=1e6)

    def test_narrow_channels_no_longer_read_zero_power(self):
        # Regression companion of the sub-resolution band_power fix: ACPR
        # over channels narrower than the bin spacing used to raise (main
        # read as 0.0) even though the tone sits right there.
        estimate = periodogram(make_tone(25e6), RATE)
        resolution = estimate.resolution_hz
        result = adjacent_channel_power_ratio(
            estimate, 25e6 + resolution / 2.0, resolution / 10.0, offset_hz=5e6
        )
        assert result["worst_db"] < 0.0


#: Finite frequency bins (``-0.0`` and subnormals included) paired with PSD
#: values that may be anything but NaN: ``-0.0``, subnormals and ``±inf``.
_ARCHIVE_BINS = st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False),
    ),
    min_size=1,
    max_size=64,
    unique_by=lambda pair: pair[0],
).map(sorted)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestArchiveEncoding:
    """``SpectrumEstimate.to_dict`` writes each array as base64 of its
    little-endian float64 bytes; ``from_dict`` reads that and the list form
    of earlier archives, and both give back the same bits."""

    @staticmethod
    def _estimate(bins, two_sided=False) -> SpectrumEstimate:
        frequencies, psd = zip(*bins)
        return SpectrumEstimate(np.array(frequencies), np.array(psd), 1.0, two_sided)

    @given(bins=_ARCHIVE_BINS, two_sided=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_keeps_every_bit(self, bins, two_sided):
        estimate = self._estimate(bins, two_sided)
        data = json.loads(json.dumps(estimate.to_dict()))
        assert isinstance(data["frequencies_hz"], str) and isinstance(data["psd"], str)
        decoded = SpectrumEstimate.from_dict(data)
        assert np.array_equal(_bits(decoded.frequencies_hz), _bits(estimate.frequencies_hz))
        assert np.array_equal(_bits(decoded.psd), _bits(estimate.psd))
        assert decoded.two_sided is two_sided
        assert decoded.to_dict() == estimate.to_dict()

    @given(bins=_ARCHIVE_BINS)
    @settings(max_examples=100, deadline=None)
    def test_legacy_list_form_decodes_to_the_same_arrays(self, bins):
        estimate = self._estimate(bins)
        legacy = dict(
            estimate.to_dict(),
            frequencies_hz=estimate.frequencies_hz.tolist(),
            psd=estimate.psd.tolist(),
        )
        decoded = SpectrumEstimate.from_dict(json.loads(json.dumps(legacy)))
        assert np.array_equal(_bits(decoded.frequencies_hz), _bits(estimate.frequencies_hz))
        assert np.array_equal(_bits(decoded.psd), _bits(estimate.psd))
        assert decoded.to_dict() == estimate.to_dict()

    def test_special_values_survive(self):
        psd = np.array([-0.0, 5e-324, 2.2e-308, np.inf, -np.inf, np.nan, 1.0])
        psd[5:6].view(np.uint64)[0] |= 0xBEEF  # a NaN with its own payload
        estimate = SpectrumEstimate(np.arange(psd.size) - 3.0, psd, 1.0, True)
        decoded = SpectrumEstimate.from_dict(json.loads(json.dumps(estimate.to_dict())))
        assert np.array_equal(_bits(decoded.psd), _bits(psd))

    @pytest.mark.parametrize("layout", ["base64", "list"])
    def test_decoded_arrays_are_owned_and_writable(self, layout):
        estimate = SpectrumEstimate(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 1.0, False)
        data = estimate.to_dict()
        if layout == "list":
            data.update(frequencies_hz=[1.0, 2.0], psd=[3.0, 4.0])
        decoded = SpectrumEstimate.from_dict(data)
        for array in (decoded.frequencies_hz, decoded.psd):
            assert array.dtype == np.float64
            assert array.flags.writeable and array.flags.owndata

    @pytest.mark.parametrize(
        "encoded, reason",
        [
            ("not base64!", "not valid base64"),
            ("AAAAAAAA8D8", "not valid base64"),  # missing padding
            ("AAAAAAAA8D8AAAA=", "11 bytes"),
            ("AAAA", "3 bytes"),
        ],
    )
    @pytest.mark.parametrize("field", ["frequencies_hz", "psd"])
    def test_malformed_arrays_raise_validation_error(self, encoded, reason, field):
        data = SpectrumEstimate(np.array([1.0]), np.array([2.0]), 1.0, False).to_dict()
        data[field] = encoded
        with pytest.raises(ValidationError, match=f"{field} .*{reason}"):
            SpectrumEstimate.from_dict(data)

    @pytest.mark.parametrize(
        "frequencies",
        [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [np.nan]],
        ids=["nan-step", "inf-bin", "lone-nan"],
    )
    def test_non_finite_frequency_bins_raise(self, frequencies):
        # A NaN step compares False against 0 and an inf step is positive,
        # so the increasing-bins check alone lets these through.
        with pytest.raises(ValidationError, match="frequencies_hz must be finite"):
            SpectrumEstimate(np.array(frequencies), np.ones(len(frequencies)), 1.0, False)

    def test_archived_nan_frequency_bin_raises(self):
        data = SpectrumEstimate(np.array([0.0, 1.0, 2.0]), np.ones(3), 1.0, False).to_dict()
        axis = np.array([0.0, np.nan, 2.0], dtype="<f8")
        data["frequencies_hz"] = base64.b64encode(axis.tobytes()).decode("ascii")
        with pytest.raises(ValidationError, match="frequencies_hz must be finite"):
            SpectrumEstimate.from_dict(data)
