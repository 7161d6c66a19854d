"""Tests for repro.dsp.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    error_vector_magnitude,
    normalised_mean_squared_error,
    relative_reconstruction_error,
)
from repro.errors import MeasurementError, ValidationError
from repro.signals import qpsk


class TestErrorMetrics:
    def test_nmse_scale_invariant(self):
        rng = np.random.default_rng(1)
        reference = rng.normal(size=200)
        estimate = reference + 0.1 * rng.normal(size=200)
        a = normalised_mean_squared_error(reference, estimate)
        b = normalised_mean_squared_error(5.0 * reference, 5.0 * estimate)
        assert a == pytest.approx(b)

    def test_nmse_zero_reference_rejected(self):
        with pytest.raises(MeasurementError):
            normalised_mean_squared_error(np.zeros(10), np.ones(10))

    def test_relative_error_is_sqrt_of_nmse(self):
        rng = np.random.default_rng(2)
        reference = rng.normal(size=100)
        estimate = reference + 0.05 * rng.normal(size=100)
        assert relative_reconstruction_error(reference, estimate) == pytest.approx(
            np.sqrt(normalised_mean_squared_error(reference, estimate))
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            normalised_mean_squared_error([1.0, 2.0], [1.0])

    @given(st.floats(min_value=0.001, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_relative_error_tracks_injected_error(self, scale):
        reference = np.sin(2 * np.pi * 0.01 * np.arange(4096))
        rng = np.random.default_rng(0)
        perturbation = rng.normal(size=reference.size)
        perturbation *= scale * np.sqrt(np.mean(reference**2) / np.mean(perturbation**2))
        measured = relative_reconstruction_error(reference, reference + perturbation)
        assert measured == pytest.approx(scale, rel=1e-6)


class TestEvm:
    def test_zero_for_identical(self):
        symbols = qpsk().map(np.arange(4).repeat(10))
        assert error_vector_magnitude(symbols, symbols) == pytest.approx(0.0)

    def test_known_offset(self):
        symbols = qpsk().map(np.arange(4).repeat(25))
        received = symbols + 0.1
        expected = 10.0  # |0.1| / rms(1.0) in percent
        assert error_vector_magnitude(symbols, received) == pytest.approx(expected, rel=1e-6)

    def test_fraction_output(self):
        symbols = qpsk().map(np.arange(4).repeat(25))
        received = symbols + 0.1
        assert error_vector_magnitude(symbols, received, as_percent=False) == pytest.approx(0.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(MeasurementError):
            error_vector_magnitude(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))
