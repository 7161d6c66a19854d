"""Tests for repro.dsp.interpolation."""

import numpy as np
import pytest

from repro.dsp import sinc_interpolate
from repro.errors import ValidationError


class TestSincInterpolation:
    def test_on_grid_points_reproduced(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=256)
        rate = 1e6
        times = np.arange(64, 192) / rate
        np.testing.assert_allclose(
            sinc_interpolate(samples, rate, times), samples[64:192], atol=1e-6
        )

    def test_oversampled_tone_between_grid_points(self):
        rate = 100e6
        tone = 3e6
        n = np.arange(2048)
        samples = np.cos(2 * np.pi * tone * n / rate)
        probe = (n[500:1500] + 0.31) / rate
        expected = np.cos(2 * np.pi * tone * probe)
        values = sinc_interpolate(samples, rate, probe, num_taps=48)
        np.testing.assert_allclose(values, expected, atol=2e-5)

    def test_complex_signal_supported(self):
        rate = 100e6
        n = np.arange(1024)
        samples = np.exp(2j * np.pi * 2e6 * n / rate)
        probe = (n[300:700] + 0.5) / rate
        values = sinc_interpolate(samples, rate, probe, num_taps=48)
        expected = np.exp(2j * np.pi * 2e6 * probe)
        np.testing.assert_allclose(values, expected, atol=1e-4)
        assert np.iscomplexobj(values)

    def test_scalar_time_accepted(self):
        samples = np.ones(64)
        value = sinc_interpolate(samples, 1e6, 32e-6)
        assert value.shape == (1,)

    def test_outside_record_tends_to_zero(self):
        samples = np.ones(32)
        value = sinc_interpolate(samples, 1e6, 1.0)  # far outside
        assert abs(value[0]) < 1e-9

    def test_more_taps_more_accurate(self):
        rate = 100e6
        n = np.arange(4096)
        samples = np.cos(2 * np.pi * 11e6 * n / rate)
        probe = (n[1000:3000] + 0.47) / rate
        expected = np.cos(2 * np.pi * 11e6 * probe)
        error_few = np.max(np.abs(sinc_interpolate(samples, rate, probe, num_taps=8) - expected))
        error_many = np.max(np.abs(sinc_interpolate(samples, rate, probe, num_taps=64) - expected))
        assert error_many < error_few

    @pytest.mark.parametrize("num_taps", [8, 32, 48])
    def test_kernel_is_a_kaiser_tapered_sinc(self, num_taps):
        """Every weight is ``sinc(d) * I0(8 sqrt(1 - (d/h)^2)) / I0(8)``
        over the ``num_taps`` samples nearest each instant (``h = num_taps / 2``)."""
        rng = np.random.default_rng(num_taps)
        rate = 1e6
        samples = rng.normal(size=128) + 1j * rng.normal(size=128)
        times = rng.uniform(40, 88, 25) / rate
        half = num_taps // 2
        expected = []
        for position in times * rate:
            indices = np.floor(position).astype(int) + np.arange(-half + 1, num_taps - half + 1)
            distance = position - indices
            fraction = np.clip(np.abs(distance) / (num_taps / 2), 0.0, 1.0)
            taper = np.i0(8.0 * np.sqrt(1.0 - fraction**2)) / np.i0(8.0)
            expected.append(np.sum(samples[indices] * np.sinc(distance) * taper))
        np.testing.assert_allclose(
            sinc_interpolate(samples, rate, times, num_taps=num_taps),
            expected,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_too_few_taps_rejected(self):
        with pytest.raises(ValidationError):
            sinc_interpolate(np.ones(32), 1e6, 1e-6, num_taps=1)
