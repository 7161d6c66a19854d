"""Tests for repro.sampling.nonuniform (Kohlenberg kernel and delay constraints)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DelayConstraintError, ValidationError
from repro.sampling import (
    BandpassBand,
    KohlenbergKernel,
    band_order,
    check_delay,
    delay_upper_bound,
    forbidden_delays,
    integer_band_positioning,
    optimal_delay,
)


PAPER_BAND = BandpassBand.from_centre(1.0e9, 90.0e6)


class TestBandOrder:
    def test_paper_values(self):
        """The paper's setup: fc = 1 GHz, B = 90 MHz gives k = 22, k+ = 23."""
        k, k_plus = band_order(PAPER_BAND)
        assert k == 22
        assert k_plus == 23

    def test_eq5_example_band(self):
        """The Eq. 5 example: fc = 1 GHz, B = 80 MHz gives k = 24."""
        band = BandpassBand.from_centre(1.0e9, 80.0e6)
        k, k_plus = band_order(band)
        assert k == 24
        assert k_plus == 25

    def test_integer_positioning_detection(self):
        integer_band = BandpassBand(90e6, 135e6)  # 2 fl / B = 4 exactly
        assert integer_band_positioning(integer_band)
        assert not integer_band_positioning(PAPER_BAND)

    def test_k_at_least_two_fl_over_b(self):
        for low, high in [(10e6, 17e6), (955e6, 1045e6), (2.0e9, 2.03e9)]:
            band = BandpassBand(low, high)
            k, _ = band_order(band)
            assert k >= 2.0 * band.f_low / band.bandwidth - 1e-9


class TestDelayConstraints:
    def test_paper_upper_bound_is_483ps(self):
        """m = 1 / (k+ * B) = 1 / (23 * 90 MHz) ~= 483 ps, as stated in Section V."""
        assert delay_upper_bound(PAPER_BAND) == pytest.approx(483.09e-12, rel=1e-3)

    def test_optimal_delay_quarter_carrier_period(self):
        assert optimal_delay(PAPER_BAND) == pytest.approx(1.0 / (4.0 * 1e9))

    def test_forbidden_delays_are_multiples(self):
        delays = forbidden_delays(PAPER_BAND, 2e-9)
        period = 1.0 / PAPER_BAND.bandwidth
        k, k_plus = band_order(PAPER_BAND)
        for delay in delays:
            ratio_k = delay / (period / k)
            ratio_k_plus = delay / (period / k_plus)
            assert (
                abs(ratio_k - round(ratio_k)) < 1e-6 or abs(ratio_k_plus - round(ratio_k_plus)) < 1e-6
            )

    def test_paper_delay_is_valid(self):
        assert check_delay(PAPER_BAND, 180e-12) == pytest.approx(180e-12)

    def test_forbidden_delay_rejected(self):
        k, _ = band_order(PAPER_BAND)
        forbidden = (1.0 / PAPER_BAND.bandwidth) / k
        with pytest.raises(DelayConstraintError):
            check_delay(PAPER_BAND, forbidden)

    def test_near_forbidden_delay_rejected(self):
        _, k_plus = band_order(PAPER_BAND)
        nearly = (1.0 / PAPER_BAND.bandwidth) / k_plus * 1.0001
        with pytest.raises(DelayConstraintError):
            check_delay(PAPER_BAND, nearly)

    def test_zero_delay_rejected(self):
        with pytest.raises(DelayConstraintError):
            check_delay(PAPER_BAND, 0.0)

    def test_integer_positioned_band_skips_k_family(self):
        band = BandpassBand(90e6, 135e6)  # k = 4 exactly, s0 vanishes
        k, _ = band_order(band)
        delay = (1.0 / band.bandwidth) / k  # would be forbidden otherwise
        assert check_delay(band, delay) == pytest.approx(delay)

    @given(
        bandwidth=st.floats(1e6, 200e6),
        position=st.one_of(st.integers(1, 40).map(float), st.floats(1.0, 40.0)),
        family=st.sampled_from([0, 1]),
        multiple=st.integers(1, 60),
        offset=st.floats(-3e-3, 3e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_exactly_the_delays_the_distance_rule_forbids(
        self, bandwidth, position, family, multiple, offset
    ):
        # Delays within a few tolerances of a multiple of T/k or T/(k+1);
        # the rule is recomputed here from band_order on every call.
        band = BandpassBand(position * bandwidth / 2.0, (position + 2.0) * bandwidth / 2.0)
        k, k_plus = band_order(band)
        period = 1.0 / band.bandwidth
        delay = (multiple + offset) * period / (k, k_plus)[family]
        orders = [k_plus] if integer_band_positioning(band) else [k, k_plus]
        violated = [
            order
            for order in orders
            if abs(delay / (period / order) - round(delay / (period / order))) < 1e-3
        ]
        for _ in range(2):  # a second call reads the band's cached spacings
            if violated:
                with pytest.raises(DelayConstraintError, match=f"T/{violated[0]} = "):
                    check_delay(band, delay)
            else:
                assert check_delay(band, delay) == delay


class TestKernelValues:
    def test_kernel_is_one_at_origin(self):
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        assert kernel.s(0.0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_s0_s1_limits_at_origin(self):
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        k, _ = band_order(PAPER_BAND)
        expected_s0 = k - 2.0 * PAPER_BAND.f_low / PAPER_BAND.bandwidth
        expected_s1 = 2.0 * PAPER_BAND.f_low / PAPER_BAND.bandwidth + 1.0 - k
        assert kernel.s0(0.0)[0] == pytest.approx(expected_s0, abs=1e-9)
        assert kernel.s1(0.0)[0] == pytest.approx(expected_s1, abs=1e-9)

    def test_matches_paper_closed_form_away_from_origin(self):
        """The product form must equal the paper's Eq. (2) cosine-difference form."""
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        k, k_plus = band_order(PAPER_BAND)
        f_low = PAPER_BAND.f_low
        bandwidth = PAPER_BAND.bandwidth
        delay = 180e-12
        t = np.linspace(-200e-9, 200e-9, 501)
        t = t[np.abs(t) > 1e-12]

        phase_k = k * np.pi * bandwidth * delay
        phase_k_plus = k_plus * np.pi * bandwidth * delay
        s0_paper = (
            np.cos(2 * np.pi * (k * bandwidth - f_low) * t - phase_k)
            - np.cos(2 * np.pi * f_low * t - phase_k)
        ) / (2 * np.pi * bandwidth * t * np.sin(phase_k))
        s1_paper = (
            np.cos(2 * np.pi * (f_low + bandwidth) * t - phase_k_plus)
            - np.cos(2 * np.pi * (k * bandwidth - f_low) * t - phase_k_plus)
        ) / (2 * np.pi * bandwidth * t * np.sin(phase_k_plus))

        np.testing.assert_allclose(kernel.s0(t), s0_paper, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(kernel.s1(t), s1_paper, rtol=1e-9, atol=1e-12)

    def test_kernel_decays_with_distance(self):
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        near = np.max(np.abs(kernel.s(np.linspace(1e-9, 20e-9, 200))))
        far = np.max(np.abs(kernel.s(np.linspace(300e-9, 320e-9, 200))))
        assert far < near

    def test_kernel_grows_near_forbidden_delay(self):
        """Approaching a forbidden delay inflates the kernel coefficients."""
        safe = KohlenbergKernel(PAPER_BAND, 180e-12)
        _, k_plus = band_order(PAPER_BAND)
        near_forbidden_delay = (1.0 / PAPER_BAND.bandwidth) / k_plus * 0.99
        risky = KohlenbergKernel(PAPER_BAND, near_forbidden_delay)
        t = np.linspace(5e-9, 100e-9, 64)
        assert np.max(np.abs(risky.s(t))) > np.max(np.abs(safe.s(t)))

    def test_callable_interface(self):
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        t = np.array([0.0, 1e-9])
        np.testing.assert_allclose(kernel(t), kernel.s(t))

    def test_invalid_band_type_rejected(self):
        with pytest.raises(ValidationError):
            KohlenbergKernel("not a band", 180e-12)

    def test_properties(self):
        kernel = KohlenbergKernel(PAPER_BAND, 180e-12)
        assert kernel.bandwidth == pytest.approx(90e6)
        assert kernel.sample_period == pytest.approx(1.0 / 90e6)
        assert kernel.orders == (22, 23)

    @given(st.floats(min_value=10e-12, max_value=470e-12))
    @settings(max_examples=30, deadline=None)
    def test_property_kernel_unity_at_origin_for_any_valid_delay(self, delay):
        try:
            kernel = KohlenbergKernel(PAPER_BAND, delay)
        except DelayConstraintError:
            return  # delay happened to be near a forbidden value; nothing to test
        assert kernel.s(0.0)[0] == pytest.approx(1.0, abs=1e-6)
