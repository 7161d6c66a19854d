"""Tests for repro.sampling.bandpass (uniform bandpass sampling theory)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AliasingError, ValidationError
from repro.sampling import (
    BandpassBand,
    alias_free_grid,
    folded_frequency,
    is_alias_free,
    minimum_sampling_rate,
    rate_margin,
    required_rate_precision,
    valid_rate_ranges,
    wedge_index,
)


class TestBandpassBand:
    def test_from_centre(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        assert band.f_low == pytest.approx(955e6)
        assert band.f_high == pytest.approx(1045e6)
        assert band.bandwidth == pytest.approx(90e6)
        assert band.centre == pytest.approx(1e9)

    def test_maximum_wedge_index(self):
        band = BandpassBand.from_centre(2.015e9, 30e6)  # fH = 2.03 GHz, paper Fig. 3b
        assert band.maximum_wedge_index == 67

    def test_inverted_edges_rejected(self):
        with pytest.raises(ValidationError):
            BandpassBand(2e9, 1e9)

    def test_negative_low_edge_rejected(self):
        with pytest.raises(ValidationError):
            BandpassBand(-1e6, 1e6)

    def test_bandwidth_exceeding_centre_rejected(self):
        with pytest.raises(ValidationError):
            BandpassBand.from_centre(10e6, 30e6)


class TestValidRateRanges:
    def test_integer_positioned_band_reaches_2b(self):
        # f_high = 4 * B: the minimum rate is exactly 2B.
        band = BandpassBand(3e6, 4e6)
        assert minimum_sampling_rate(band) == pytest.approx(2e6)

    def test_non_integer_positioned_band_above_2b(self):
        band = BandpassBand(3.5e6, 4.5e6)
        assert minimum_sampling_rate(band) > 2e6 * (1.0 - 1e-12)

    def test_ranges_sorted_and_disjoint(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        ranges = valid_rate_ranges(band, max_rate_hz=3e9)
        for first, second in zip(ranges, ranges[1:]):
            assert first.maximum_hz <= second.minimum_hz + 1e-6
        assert ranges[0].minimum_hz == pytest.approx(minimum_sampling_rate(band))

    def test_n_equal_one_range_unbounded(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        ranges = valid_rate_ranges(band)
        assert ranges[-1].wedge_index == 1
        assert np.isinf(ranges[-1].maximum_hz)
        assert ranges[-1].minimum_hz == pytest.approx(2.0 * band.f_high)

    def test_number_of_ranges_equals_max_wedge(self):
        band = BandpassBand(3e6, 4e6)
        assert len(valid_rate_ranges(band)) == band.maximum_wedge_index


class TestAliasFreePredicate:
    def test_rates_in_ranges_are_alias_free(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        for rate_range in valid_rate_ranges(band, max_rate_hz=2.5e9):
            midpoint = (rate_range.minimum_hz + min(rate_range.maximum_hz, 2.5e9)) / 2.0
            assert is_alias_free(band, midpoint)

    def test_rates_between_ranges_alias(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        ranges = valid_rate_ranges(band, max_rate_hz=2.5e9)
        for first, second in zip(ranges, ranges[1:]):
            gap_middle = (first.maximum_hz + second.minimum_hz) / 2.0
            if second.minimum_hz - first.maximum_hz > 1.0:
                assert not is_alias_free(band, gap_middle)

    def test_below_2b_always_aliases(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        assert not is_alias_free(band, 2.0 * band.bandwidth * 0.99)

    def test_above_2fh_never_aliases(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        assert is_alias_free(band, 2.0 * band.f_high * 1.01)

    def test_brute_force_agreement(self):
        """The closed-form predicate agrees with a brute-force folding check."""
        band = BandpassBand(33e6, 41e6)

        def brute_force(rate):
            # The band [f_low, f_high] folds without overlap iff its low and
            # high edges stay on the same side within a Nyquist zone.
            zone_low = int(np.floor(2.0 * band.f_low / rate))
            zone_high = int(np.floor(2.0 * band.f_high / rate))
            return zone_low == zone_high

        for rate in np.linspace(2.0 * band.bandwidth, 2.5 * band.f_high, 997):
            assert is_alias_free(band, rate) == brute_force(rate), rate

    @given(st.floats(min_value=1.2, max_value=7.0), st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_property_alias_free_implies_wedge_consistency(self, position_ratio, normalised_rate):
        band = BandpassBand(position_ratio - 1.0, position_ratio)
        if is_alias_free(band, normalised_rate):
            index = wedge_index(band, normalised_rate)
            assert 1 <= index <= band.maximum_wedge_index
            low = 2.0 * band.f_high / index
            assert normalised_rate >= low - 1e-9


class TestMarginsAndPrecision:
    def test_wedge_index_raises_on_alias(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        with pytest.raises(AliasingError):
            wedge_index(band, 150e6)

    def test_margins_positive_inside_wedge(self):
        band = BandpassBand.from_centre(2.015e9, 30e6)
        ranges = valid_rate_ranges(band, max_rate_hz=120e6)
        rate = (ranges[0].minimum_hz + ranges[0].maximum_hz) / 2.0
        down, up = rate_margin(band, rate)
        assert down > 0.0 and up > 0.0

    def test_paper_fig3b_kilohertz_precision_near_minimum(self):
        """Fig. 3b: near fs = 2B the margin for a 30 MHz band at 2.03 GHz is a few kHz."""
        band = BandpassBand(2.0e9, 2.03e9)
        precision = required_rate_precision(band, minimum_sampling_rate(band) + 1e3)
        assert precision < 500e3  # sub-MHz
        ranges = valid_rate_ranges(band, max_rate_hz=100e6)
        narrowest = min(r.width_hz for r in ranges)
        assert narrowest < 1e6

    def test_precision_improves_at_higher_rates(self):
        band = BandpassBand(2.0e9, 2.03e9)
        ranges = valid_rate_ranges(band, max_rate_hz=200e6)
        low_rate_width = ranges[0].width_hz
        high_rate_width = ranges[-1].width_hz
        assert high_rate_width > low_rate_width


class TestFoldingHelpers:
    def test_folded_frequency_first_zone(self):
        assert folded_frequency(10e6, 100e6) == pytest.approx(10e6)

    def test_folded_frequency_second_zone_inverts(self):
        assert folded_frequency(60e6, 100e6) == pytest.approx(40e6)

    def test_folded_frequency_higher_zone(self):
        assert folded_frequency(991e6, 90e6) == pytest.approx(1e6)


class TestAliasFreeGrid:
    def test_grid_shape(self):
        ratios = np.linspace(1.0, 7.0, 25)
        rates = np.linspace(0.5, 8.0, 31)
        grid = alias_free_grid(ratios, rates)
        assert grid.shape == (31, 25)

    def test_rates_above_2fh_always_white(self):
        ratios = np.linspace(1.0, 4.0, 13)
        rates = np.array([8.5])
        grid = alias_free_grid(ratios, rates)
        assert np.all(grid[0, :])

    def test_rates_below_2b_always_grey(self):
        ratios = np.linspace(1.5, 7.0, 12)
        rates = np.array([1.5])
        grid = alias_free_grid(ratios, rates)
        assert not np.any(grid[0, :])

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValidationError):
            alias_free_grid([0.5], [2.0])
