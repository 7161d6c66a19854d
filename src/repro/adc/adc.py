"""A single ADC channel: sample-and-hold, static mismatch and quantisation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..signals.passband import AnalogSignal
from .mismatch import ChannelMismatch
from .quantizer import UniformQuantizer
from .sample_hold import SampleAndHold

__all__ = ["AdcChannel"]


@dataclass
class AdcChannel:
    """One converter channel of the (BP-)TIADC.

    The conversion pipeline is: sample-and-hold (skew) -> static gain/offset
    errors -> uniform quantisation.  The converter's random timing error is
    :class:`~repro.adc.tiadc.BpTiadc`'s, on the shared clock.

    Parameters
    ----------
    quantizer:
        Amplitude quantizer (the paper uses 10-bit converters).
    mismatch:
        Static and timing non-idealities of this channel.
    """

    quantizer: UniformQuantizer = field(default_factory=UniformQuantizer)
    mismatch: ChannelMismatch = field(default_factory=ChannelMismatch)

    def __post_init__(self) -> None:
        if not isinstance(self.quantizer, UniformQuantizer):
            raise ValidationError("quantizer must be a UniformQuantizer")
        if not isinstance(self.mismatch, ChannelMismatch):
            raise ValidationError("mismatch must be a ChannelMismatch")
        self._sample_hold = SampleAndHold(mismatch=self.mismatch)

    def convert(self, signal: AnalogSignal, nominal_times) -> np.ndarray:
        """Digitise ``signal`` at the nominal clock edges ``nominal_times``."""
        held = self._sample_hold.sample(signal, nominal_times)
        impaired = self.mismatch.apply_static(held)
        return self.quantizer.quantize(impaired)
