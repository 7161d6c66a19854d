"""Tests for repro.adc.quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import UniformQuantizer
from repro.errors import ValidationError


class TestQuantizerBasics:
    def test_num_levels_and_step(self):
        quantizer = UniformQuantizer(resolution_bits=10, full_scale=1.0)
        assert quantizer.num_levels == 1024
        assert quantizer.step_size == pytest.approx(2.0 / 1024)

    def test_output_on_reconstruction_levels(self):
        quantizer = UniformQuantizer(resolution_bits=6, full_scale=1.0)
        values = np.linspace(-0.99, 0.97, 301)
        quantized = quantizer.quantize(values)
        codes = (quantized / quantizer.step_size) - 0.5
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_error_bounded_by_half_step(self):
        quantizer = UniformQuantizer(resolution_bits=8, full_scale=1.0)
        values = np.random.default_rng(0).uniform(-0.99, 0.99, 1000)
        error = np.abs(quantizer.quantize(values) - values)
        assert np.max(error) <= quantizer.step_size / 2.0 + 1e-12

    def test_clipping(self):
        quantizer = UniformQuantizer(resolution_bits=8, full_scale=1.0)
        assert quantizer.quantize([5.0])[0] <= 1.0
        assert quantizer.quantize([-5.0])[0] >= -1.0

    def test_monotone(self):
        quantizer = UniformQuantizer(resolution_bits=6, full_scale=1.0)
        values = np.linspace(-1.2, 1.2, 500)
        quantized = quantizer.quantize(values)
        assert np.all(np.diff(quantized) >= -1e-12)

    def test_invalid_bits(self):
        with pytest.raises(ValidationError):
            UniformQuantizer(resolution_bits=0)

    @given(st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_property_idempotent(self, value):
        quantizer = UniformQuantizer(resolution_bits=10, full_scale=1.0)
        once = quantizer.quantize([value])[0]
        twice = quantizer.quantize([once])[0]
        assert once == pytest.approx(twice, abs=1e-15)


class TestQuantizerNoise:
    def test_full_scale_sine_snr_close_to_ideal(self):
        """A full-scale sine through the 10-bit quantizer keeps ~62 dB SNR (6.02 N + 1.76)."""
        rate = 100e6
        quantizer = UniformQuantizer(resolution_bits=10, full_scale=1.0)
        n = np.arange(65536)
        # Non-coherent frequency to exercise all codes.
        tone = 0.999 * np.sin(2 * np.pi * 3.137e6 * n / rate)
        error = quantizer.quantize(tone) - tone
        snr_db = 10.0 * np.log10(np.mean(tone**2) / np.mean(error**2))
        assert snr_db == pytest.approx(6.02 * 10 + 1.76, abs=2.0)

    def test_quantization_noise_power_formula(self):
        quantizer = UniformQuantizer(resolution_bits=10, full_scale=1.0)
        rng = np.random.default_rng(1)
        values = rng.uniform(-0.9, 0.9, 200000)
        error = quantizer.quantize(values) - values
        assert np.var(error) == pytest.approx(quantizer.step_size**2 / 12.0, rel=0.05)
