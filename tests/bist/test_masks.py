"""Tests for repro.bist.masks."""

import numpy as np
import pytest

from repro.bist import SpectralMask
from repro.dsp import SpectrumEstimate
from repro.errors import MaskError, ValidationError
from repro.signals import get_profile


def synthetic_spectrum(centre_hz=1e9, span_hz=100e6, num=2001, skirt_db_per_hz=None):
    """A synthetic PSD: flat main lobe +/- 7.5 MHz, then a falling skirt."""
    frequencies = np.linspace(centre_hz - span_hz / 2, centre_hz + span_hz / 2, num)
    offsets = np.abs(frequencies - centre_hz)
    level_db = np.where(offsets <= 7.5e6, 0.0, -(offsets - 7.5e6) * 1.5e-6)
    psd = 10.0 ** (level_db / 10.0)
    return SpectrumEstimate(
        frequencies_hz=frequencies,
        psd=psd,
        resolution_hz=frequencies[1] - frequencies[0],
        two_sided=False,
    )


def simple_mask():
    return SpectralMask(
        name="test-mask",
        offsets_hz=np.array([0.0, 7.5e6, 10e6, 20e6, 40e6]),
        limits_db=np.array([0.0, 0.0, -10.0, -25.0, -45.0]),
    )


class TestMaskDefinition:
    def test_limit_interpolation(self):
        mask = simple_mask()
        assert mask.limit_at(0.0) == pytest.approx(0.0)
        assert mask.limit_at(15e6) == pytest.approx(-17.5)
        assert mask.limit_at(-15e6) == pytest.approx(-17.5)  # symmetric

    def test_limit_beyond_last_breakpoint_flat(self):
        assert simple_mask().limit_at(80e6) == pytest.approx(-45.0)

    def test_span(self):
        assert simple_mask().span_hz == pytest.approx(40e6)

    def test_from_profile(self):
        mask = SpectralMask.from_profile(get_profile("paper-qpsk-1ghz"))
        assert mask.offsets_hz[0] == pytest.approx(0.0)
        assert mask.limits_db[0] == pytest.approx(0.0)

    def test_unsorted_offsets_rejected(self):
        with pytest.raises(MaskError):
            SpectralMask("bad", np.array([0.0, 2e6, 1e6]), np.array([0.0, -10.0, -20.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MaskError):
            SpectralMask("bad", np.array([0.0, 1e6, 2e6]), np.array([0.0, -10.0]))

    def test_negative_offset_rejected(self):
        with pytest.raises(MaskError):
            SpectralMask("bad", np.array([-1e6, 1e6]), np.array([0.0, -10.0]))

    def test_profile_type_check(self):
        with pytest.raises(ValidationError):
            SpectralMask.from_profile("profile")


class TestMaskChecking:
    def test_compliant_spectrum_passes(self):
        # Skirt falls at 1.5 dB/MHz; mask allows -10 dB at 10 MHz (skirt is at
        # -3.75 dB there)... choose a looser mask to pass.
        mask = SpectralMask(
            name="loose",
            offsets_hz=np.array([0.0, 7.5e6, 10e6, 40e6]),
            limits_db=np.array([0.0, 0.0, -1.0, -40.0]),
        )
        result = mask.check(synthetic_spectrum(), channel_centre_hz=1e9)
        assert result.passed
        assert result.worst_margin_db >= 0.0
        assert result.violations == ()

    def test_violating_spectrum_fails(self):
        mask = SpectralMask(
            name="tight",
            offsets_hz=np.array([0.0, 7.5e6, 8e6, 40e6]),
            limits_db=np.array([0.0, 0.0, -30.0, -80.0]),
        )
        result = mask.check(synthetic_spectrum(), channel_centre_hz=1e9)
        assert not result.passed
        assert result.worst_margin_db < 0.0
        assert len(result.violations) > 0
        worst = min(violation.limit_db - violation.measured_db for violation in result.violations)
        assert worst == pytest.approx(result.worst_margin_db)

    def test_violation_details(self):
        mask = SpectralMask(
            name="tight",
            offsets_hz=np.array([0.0, 7.5e6, 8e6, 40e6]),
            limits_db=np.array([0.0, 0.0, -30.0, -80.0]),
        )
        result = mask.check(synthetic_spectrum(), channel_centre_hz=1e9)
        violation = result.violations[0]
        assert violation.measured_db > violation.limit_db

    def test_in_band_region_exempt(self):
        # A mask whose first negative limit starts at 10 MHz must not flag the
        # flat in-band region even though it sits at 0 dB.
        mask = simple_mask()
        result = mask.check(synthetic_spectrum(), channel_centre_hz=1e9)
        for violation in result.violations:
            assert abs(violation.frequency_offset_hz) >= 10e6 - 1e5

    def test_spectrum_not_covering_mask_rejected(self):
        narrow = synthetic_spectrum(span_hz=10e6)
        mask = SpectralMask(
            name="wide",
            offsets_hz=np.array([0.0, 20e6, 40e6]),
            limits_db=np.array([0.0, -20.0, -40.0]),
        )
        with pytest.raises(MaskError):
            mask.check(narrow, channel_centre_hz=1e9)


class TestMaskEdgeCases:
    def test_zero_width_segment_rejected(self):
        # Repeated breakpoint offsets would define a zero-width segment with
        # two limits at the same frequency; the mask must refuse them.
        with pytest.raises(MaskError):
            SpectralMask(
                "zero-width",
                np.array([0.0, 10e6, 10e6, 20e6]),
                np.array([0.0, 0.0, -20.0, -30.0]),
            )

    def test_overlapping_segments_rejected(self):
        # A breakpoint list that doubles back on itself describes overlapping
        # segments (two different limits over 5..10 MHz).
        with pytest.raises(MaskError):
            SpectralMask(
                "overlap",
                np.array([0.0, 10e6, 5e6, 20e6]),
                np.array([0.0, -10.0, -5.0, -30.0]),
            )

    def test_near_vertical_step_interpolates_inside_step(self):
        # A brick-wall edge is modelled by an epsilon-wide segment; limits on
        # either side of the step must be the breakpoint values.
        mask = SpectralMask(
            "step",
            np.array([0.0, 10e6, 10e6 + 1.0, 20e6]),
            np.array([0.0, 0.0, -30.0, -30.0]),
        )
        assert mask.limit_at(10e6) == pytest.approx(0.0)
        assert mask.limit_at(10e6 + 1.0) == pytest.approx(-30.0)
        assert mask.limit_at(15e6) == pytest.approx(-30.0)

    def test_spectrum_entirely_inside_exempt_band_rejected(self):
        # The grid spans the mask frequencies but every bin sits inside the
        # in-band exemption: nothing is actually checkable.
        narrow = synthetic_spectrum(span_hz=12e6)  # bins within +/- 6 MHz
        mask = simple_mask()  # exemption reaches the first negative limit at 10 MHz
        with pytest.raises(MaskError):
            mask.check(narrow, channel_centre_hz=1e9)

    def test_spectrum_partially_spanning_mask_checks_covered_bins_only(self):
        # Grid reaches 15 MHz offsets, mask extends to 40 MHz: the overlap
        # (10..15 MHz) is checked and bins beyond the grid are simply absent.
        partial = synthetic_spectrum(span_hz=30e6)
        result = simple_mask().check(partial, channel_centre_hz=1e9)
        assert abs(result.worst_offset_hz) <= 15e6 + 1e3
        for violation in result.violations:
            assert abs(violation.frequency_offset_hz) <= 15e6 + 1e3

    def test_grid_beyond_mask_span_is_ignored(self):
        # Bins past the last breakpoint are outside the mask's jurisdiction
        # even if they would violate the final limit.
        wide = synthetic_spectrum(span_hz=200e6)
        mask = SpectralMask(
            "short-span",
            np.array([0.0, 10e6, 20e6]),
            np.array([0.0, -5.0, -10.0]),
        )
        result = mask.check(wide, channel_centre_hz=1e9)
        assert abs(result.worst_offset_hz) <= 20e6 + 1e3
        for violation in result.violations:
            assert abs(violation.frequency_offset_hz) <= 20e6 + 1e3

    def test_result_round_trip(self):
        import json

        from repro.bist import MaskCheckResult

        result = simple_mask().check(synthetic_spectrum(), channel_centre_hz=1e9)
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = MaskCheckResult.from_dict(payload)
        assert rebuilt == result
