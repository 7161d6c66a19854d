"""Sample-and-hold model: the point where timing errors enter the converter.

The sample-and-hold freezes the analog input at (nominally) the clock edge;
the channel's deterministic skew displaces the actual sampling instant.
Because the input of the BIST sampler is an RF bandpass signal, a few
picoseconds of displacement already matter — that is the whole point of
the paper's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..signals.passband import AnalogSignal
from ..utils.validation import check_1d_array
from .mismatch import ChannelMismatch

__all__ = ["SampleAndHold"]


@dataclass
class SampleAndHold:
    """A sample-and-hold stage with deterministic skew.

    Parameters
    ----------
    mismatch:
        The channel mismatch description supplying the skew.
    """

    mismatch: ChannelMismatch = field(default_factory=ChannelMismatch)

    def __post_init__(self) -> None:
        if not isinstance(self.mismatch, ChannelMismatch):
            raise ValidationError("mismatch must be a ChannelMismatch")

    def actual_sampling_times(self, nominal_times) -> np.ndarray:
        """The instants at which the stage really samples, given nominal edges."""
        nominal_times = check_1d_array(nominal_times, "nominal_times", dtype=float)
        return nominal_times + self.mismatch.skew_seconds

    def sample(self, signal: AnalogSignal, nominal_times) -> np.ndarray:
        """Sample ``signal`` at the (impaired) instants implied by ``nominal_times``."""
        if not isinstance(signal, AnalogSignal):
            raise ValidationError("signal must be an AnalogSignal")
        return signal.evaluate(self.actual_sampling_times(nominal_times))
