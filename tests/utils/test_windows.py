"""Tests for repro.utils.windows."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils import windows


#: The library's windows by name: Hann for spectra, Kaiser (beta = 8) for the FIR.
ALL_WINDOWS = {"kaiser": windows.kaiser_window, "hann": windows.hann_window}


class TestWindowShapes:
    @pytest.mark.parametrize("name", ALL_WINDOWS)
    def test_length(self, name):
        assert len(ALL_WINDOWS[name](61)) == 61

    @pytest.mark.parametrize("name", ALL_WINDOWS)
    def test_symmetry(self, name):
        w = ALL_WINDOWS[name](61)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    @pytest.mark.parametrize("name", ALL_WINDOWS)
    def test_peak_at_centre(self, name):
        w = ALL_WINDOWS[name](61)
        assert np.argmax(w) == 30

    @pytest.mark.parametrize("name", ALL_WINDOWS)
    def test_values_in_unit_interval(self, name):
        w = ALL_WINDOWS[name](129)
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(w >= -1e-12)

    @pytest.mark.parametrize("name", ALL_WINDOWS)
    def test_single_tap_is_one(self, name):
        np.testing.assert_allclose(ALL_WINDOWS[name](1), [1.0])

    @pytest.mark.parametrize(
        "name, reference",
        [("kaiser", lambda n: np.kaiser(n, 8.0)), ("hann", np.hanning)],
        ids=["kaiser", "hann"],
    )
    def test_matches_numpy_reference(self, name, reference):
        np.testing.assert_allclose(ALL_WINDOWS[name](61), reference(61), atol=1e-12)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValidationError):
            windows.kaiser_window(0)


class TestEvaluateTaper:
    @pytest.mark.parametrize("num_taps", [2, 7, 32, 61, 101])
    def test_samples_the_kaiser_window_at_tap_offsets(self, num_taps):
        # Tap n of an N-tap window sits at offset (n - h) / h from the centre, h = (N - 1) / 2.
        half_span = (num_taps - 1) / 2.0
        offsets = (np.arange(num_taps) - half_span) / half_span
        np.testing.assert_allclose(
            windows.evaluate_taper(offsets),
            windows.kaiser_window(num_taps),
            atol=1e-12,
        )

    def test_even_in_the_offset(self):
        offsets = np.linspace(0.0, 1.25, 26)
        np.testing.assert_array_equal(
            windows.evaluate_taper(-offsets), windows.evaluate_taper(offsets)
        )

    def test_unity_at_the_centre_and_one_over_i0_of_beta_at_the_edge(self):
        np.testing.assert_allclose(
            windows.evaluate_taper([0.0, 1.0]), [1.0, 1.0 / float(np.i0(8.0))], rtol=1e-15
        )

    def test_decreases_from_the_centre_to_the_edge(self):
        assert np.all(np.diff(windows.evaluate_taper(np.linspace(0.0, 1.0, 101))) < 0.0)

    def test_offsets_outside_support_clip_to_edge(self):
        edge = windows.evaluate_taper(1.0)
        np.testing.assert_allclose(windows.evaluate_taper([1.5, -1.0, -4.0]), [edge] * 3)

    @given(st.floats(-1.25, 1.25))
    def test_series_matches_i0_and_is_even(self, x):
        # The power series in 1 - x^2 against the Bessel expression it replaces.
        expected = np.i0(8.0 * np.sqrt(max(1.0 - min(abs(x), 1.0) ** 2, 0.0))) / np.i0(8.0)
        value = windows.evaluate_taper(x)
        assert abs(value - expected) <= 2e-15 * expected
        assert windows.evaluate_taper(-x) == value

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_decreasing_on_the_support(self, a, b):
        # 1e-6 apart, the taper moves by >= ~3e-12 near x = 0, far above its
        # rounding; closer points can round to one y = 1 - x^2.
        assume(b - a >= 1e-6)
        assert windows.evaluate_taper(a) > windows.evaluate_taper(b)

    def test_kaiser_normaliser_is_i0_of_beta(self):
        assert windows.kaiser_normaliser(8.0) == pytest.approx(float(np.i0(8.0)), rel=1e-15)
