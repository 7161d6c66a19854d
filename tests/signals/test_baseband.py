"""Tests for repro.signals.baseband (ComplexEnvelope)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.signals import ComplexEnvelope


def make_envelope(num=256, rate=100e6, start=0.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=num) + 1j * rng.normal(size=num)
    return ComplexEnvelope(samples, rate, start)


class TestBasics:
    def test_length_and_duration(self):
        envelope = make_envelope(200, 100e6)
        assert len(envelope) == 200
        assert envelope.duration == pytest.approx(2e-6)

    def test_times_spacing(self):
        envelope = make_envelope(10, 50e6, start=1e-6)
        times = envelope.times()
        assert times[0] == pytest.approx(1e-6)
        np.testing.assert_allclose(np.diff(times), 1.0 / 50e6)

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            ComplexEnvelope(np.ones(4, dtype=complex), 0.0)

    def test_invalid_2d_samples(self):
        with pytest.raises(ValidationError):
            ComplexEnvelope(np.ones((2, 2), dtype=complex), 1e6)


class TestPowerMetrics:
    def test_mean_power_of_constant(self):
        envelope = ComplexEnvelope(np.full(100, 2.0 + 0.0j), 1e6)
        assert envelope.mean_power() == pytest.approx(4.0)

    def test_scaled_to_power(self):
        envelope = make_envelope().scaled_to_power(2.5)
        assert envelope.mean_power() == pytest.approx(2.5)


class TestTransformations:
    def test_scaled(self):
        envelope = make_envelope()
        scaled = envelope.scaled(2.0)
        assert scaled.mean_power() == pytest.approx(4.0 * envelope.mean_power())

    def test_delayed_shifts_time_only(self):
        envelope = make_envelope(start=0.0)
        delayed = envelope.delayed(1e-6)
        assert delayed.start_time == pytest.approx(1e-6)
        np.testing.assert_array_equal(delayed.samples, envelope.samples)

    def test_add_same_grid(self):
        a = make_envelope(seed=1)
        b = make_envelope(seed=2)
        np.testing.assert_allclose((a + b).samples, a.samples + b.samples)

    def test_add_mismatched_grid_rejected(self):
        a = make_envelope(rate=1e6)
        b = make_envelope(rate=2e6)
        with pytest.raises(ValidationError):
            _ = a + b


class TestEvaluation:
    def test_evaluate_on_grid_matches_samples(self):
        envelope = make_envelope(256, 10e6)
        picked = envelope.evaluate(envelope.times()[32:64])
        np.testing.assert_allclose(picked, envelope.samples[32:64], atol=1e-6)

    def test_evaluate_between_samples_of_slow_tone(self):
        rate = 100e6
        t = np.arange(1024) / rate
        tone = ComplexEnvelope(np.exp(2j * np.pi * 1e6 * t), rate)
        probe_times = t[200:800] + 0.37 / rate
        expected = np.exp(2j * np.pi * 1e6 * probe_times)
        np.testing.assert_allclose(tone.evaluate(probe_times), expected, atol=1e-4)

    @given(st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=20, deadline=None)
    def test_interpolation_bounded_by_signal_range(self, fraction):
        envelope = make_envelope(512, 1e6, seed=9)
        probe = envelope.start_time + (100 + fraction) / 1e6
        value = envelope.evaluate([probe])[0]
        assert abs(value) < 10.0 * np.max(np.abs(envelope.samples))
