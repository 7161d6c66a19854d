"""Tests for repro.signals.multitone."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.signals import ToneSignal, multitone_in_band, single_tone


class TestSingleTone:
    def test_evaluates_cosine(self):
        tone = single_tone(1e6, amplitude=2.0)
        times = np.array([0.0, 0.25e-6, 0.5e-6])
        np.testing.assert_allclose(tone.evaluate(times), [2.0, 0.0, -2.0], atol=1e-9)

    def test_band_is_degenerate(self):
        low, high = single_tone(5e6).band
        assert low == high == pytest.approx(5e6)

    def test_mean_power(self):
        assert single_tone(1e6, amplitude=2.0).mean_power() == pytest.approx(2.0)

    def test_invalid_frequency(self):
        with pytest.raises(ValidationError):
            single_tone(0.0)


class TestMultitone:
    def test_num_tones(self):
        assert multitone_in_band(1e6, 2e6, 7).frequencies_hz.size == 7

    def test_tones_strictly_inside_band(self):
        signal = multitone_in_band(1e6, 2e6, 5)
        assert signal.frequencies_hz.min() > 1e6
        assert signal.frequencies_hz.max() < 2e6

    def test_mean_power_scales_with_tone_count(self):
        two = multitone_in_band(1e6, 2e6, 2, amplitude=1.0)
        four = multitone_in_band(1e6, 2e6, 4, amplitude=1.0)
        assert four.mean_power() == pytest.approx(2.0 * two.mean_power())

    def test_random_phases_reproducible(self):
        a = multitone_in_band(1e6, 2e6, 5, seed=3)
        b = multitone_in_band(1e6, 2e6, 5, seed=3)
        np.testing.assert_allclose(a.phases, b.phases)

    def test_invalid_band(self):
        with pytest.raises(ValidationError):
            multitone_in_band(2e6, 1e6, 3)


class TestToneSignalValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            ToneSignal(np.array([1e6, 2e6]), np.array([1.0]))

    def test_mismatched_phases_rejected(self):
        with pytest.raises(ValidationError):
            ToneSignal(np.array([1e6]), np.array([1.0]), np.array([0.0, 1.0]))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            ToneSignal(np.array([-1e6]), np.array([1.0]))

    def test_superposition(self):
        tone_a = single_tone(1e6, 1.0)
        tone_b = single_tone(3e6, 0.5)
        both = ToneSignal(
            np.array([1e6, 3e6]), np.array([1.0, 0.5]), np.array([0.0, 0.0])
        )
        times = np.linspace(0.0, 1e-6, 41)
        np.testing.assert_allclose(
            both.evaluate(times), tone_a.evaluate(times) + tone_b.evaluate(times), atol=1e-12
        )
