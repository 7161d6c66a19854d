"""Behavioural analog output filter (band-pass after the PA).

The homodyne chain of Fig. 1 contains a band-pass filter after the PA.  At
the complex-envelope modelling level it is adequately represented by a
discrete-time Butterworth filter applied to the envelope: the RF band-pass
filter becomes an envelope low-pass of half its RF bandwidth (possibly
frequency-shifted if the filter is not centred on the carrier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.filters import zero_phase_butterworth
from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.validation import check_integer, check_positive

__all__ = ["AnalogBandpass"]


@dataclass(frozen=True)
class AnalogBandpass:
    """RF band-pass filter centred near the carrier, applied at envelope level.

    A band-pass of RF bandwidth ``bandwidth_hz`` centred ``centre_offset_hz``
    away from the carrier is equivalent, for the complex envelope, to a
    frequency-shifted low-pass of cutoff ``bandwidth_hz / 2``.

    Parameters
    ----------
    bandwidth_hz:
        RF -3 dB bandwidth of the filter.
    centre_offset_hz:
        Offset of the filter centre from the carrier frequency (0 when the
        filter is centred on the channel).
    order:
        Butterworth order.
    """

    bandwidth_hz: float
    centre_offset_hz: float = 0.0
    order: int = 4

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_hz, "bandwidth_hz")
        check_integer(self.order, "order", minimum=1)

    def apply(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Filter a complex envelope."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        nyquist = envelope.sample_rate / 2.0
        cutoff = self.bandwidth_hz / 2.0
        if cutoff >= nyquist and self.centre_offset_hz == 0.0:
            return envelope
        samples = envelope.samples
        times = envelope.times()
        if self.centre_offset_hz != 0.0:
            # Shift the filter centre to baseband, low-pass, shift back.
            shift = np.exp(-2j * np.pi * self.centre_offset_hz * times)
            samples = samples * shift
        if cutoff < nyquist:
            samples = zero_phase_butterworth(samples, cutoff, envelope.sample_rate, self.order)
        if self.centre_offset_hz != 0.0:
            samples = samples * np.exp(2j * np.pi * self.centre_offset_hz * times)
        return envelope.with_samples(samples)
