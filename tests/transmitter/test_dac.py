"""Tests for repro.transmitter.dac."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.signals import ComplexEnvelope
from repro.transmitter import TransmitDac


def ramp_envelope(num=1024, rate=100e6, amplitude=1.0):
    ramp = np.linspace(-amplitude, amplitude, num)
    return ComplexEnvelope(ramp + 1j * ramp[::-1], rate)


class TestQuantisation:
    def test_high_resolution_nearly_transparent(self):
        envelope = ramp_envelope()
        dac = TransmitDac(resolution_bits=14)
        error = np.max(np.abs(dac.convert(envelope).samples - envelope.samples))
        assert error < dac.step_size

    def test_coarse_resolution_visible(self):
        envelope = ramp_envelope()
        converted = TransmitDac(resolution_bits=4).convert(envelope)
        unique_levels = np.unique(np.round(converted.samples.real, 9))
        assert unique_levels.size <= 2**4

    def test_clipping_at_full_scale(self):
        envelope = ramp_envelope(amplitude=2.0 * TransmitDac.full_scale)
        converted = TransmitDac(resolution_bits=12).convert(envelope)
        assert np.max(converted.samples.real) <= TransmitDac.full_scale
        assert np.min(converted.samples.real) >= -TransmitDac.full_scale

    def test_step_size(self):
        dac = TransmitDac(resolution_bits=10)
        assert dac.step_size == pytest.approx(2.0 * TransmitDac.full_scale / 1024)

    def test_codes_are_whole_steps(self):
        dac = TransmitDac(resolution_bits=10)
        converted = dac.convert(ramp_envelope(amplitude=0.9)).samples.real
        assert np.allclose(converted / dac.step_size, np.round(converted / dac.step_size))

    def test_type_check(self):
        with pytest.raises(ValidationError):
            TransmitDac().convert(np.ones(16))
