"""Tests for repro.signals.passband."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.signals import (
    ComplexEnvelope,
    CompositeSignal,
    ModulatedPassbandSignal,
    single_tone,
)


def make_passband(fc=1e9, rate=160e6, num=2048, tone_offset=5e6):
    t = np.arange(num) / rate
    envelope = ComplexEnvelope(np.exp(2j * np.pi * tone_offset * t), rate)
    return ModulatedPassbandSignal(envelope, fc, occupied_bandwidth=rate)


class TestModulatedPassbandSignal:
    def test_band_centred_on_carrier(self):
        signal = make_passband(fc=1e9, rate=160e6)
        low, high = signal.band
        assert (low + high) / 2.0 == pytest.approx(1e9)
        assert high - low == pytest.approx(160e6)

    def test_offset_tone_appears_at_fc_plus_offset(self):
        # envelope = exp(j*2*pi*fo*t) -> passband cos(2*pi*(fc+fo)*t)
        fc, fo = 1e9, 5e6
        signal = make_passband(fc=fc, tone_offset=fo)
        times = 2e-6 + np.arange(64) / 7.9e9
        expected = np.cos(2.0 * np.pi * (fc + fo) * times)
        np.testing.assert_allclose(signal.evaluate(times), expected, atol=5e-3)

    def test_mean_power_is_half_envelope_power(self):
        signal = make_passband()
        assert signal.mean_power() == pytest.approx(signal.envelope.mean_power() / 2.0)

    def test_carrier_below_bandwidth_rejected(self):
        t = np.arange(256) / 100e6
        envelope = ComplexEnvelope(np.ones_like(t, dtype=complex), 100e6)
        with pytest.raises(ValidationError):
            ModulatedPassbandSignal(envelope, carrier_frequency=10e6, occupied_bandwidth=100e6)

    def test_non_envelope_rejected(self):
        with pytest.raises(ValidationError):
            ModulatedPassbandSignal(np.ones(8), 1e9)

    def test_callable_interface(self):
        signal = make_passband()
        times = np.array([1e-6, 1.1e-6])
        np.testing.assert_allclose(signal(times), signal.evaluate(times))


class TestCompositeSignal:
    def test_sum_of_tones(self):
        a = single_tone(100e6, amplitude=1.0)
        b = single_tone(150e6, amplitude=0.5)
        combined = a + b
        times = np.linspace(0, 1e-7, 50)
        np.testing.assert_allclose(
            combined.evaluate(times), a.evaluate(times) + b.evaluate(times), atol=1e-12
        )

    def test_band_is_union(self):
        a = single_tone(100e6)
        b = single_tone(150e6)
        low, high = (a + b).band
        assert low == pytest.approx(100e6)
        assert high == pytest.approx(150e6)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CompositeSignal([])

    def test_non_signal_component_rejected(self):
        with pytest.raises(ValidationError):
            CompositeSignal([single_tone(1e6), "not a signal"])
