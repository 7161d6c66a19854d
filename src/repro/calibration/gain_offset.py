"""Offset and gain mismatch estimation / correction.

The paper treats offset and gain calibration of the two BP-TIADC channels as
a solved problem ("relatively simple to implement") and concentrates on the
time-skew; this module supplies that solved part so the full BIST loop can be
exercised with all three mismatch classes enabled.

Because both channels digitise the *same* stationary waveform (just shifted
by a sub-sample delay), their long-term sample mean and power must agree; the
estimators below exploit exactly that.

A practical caveat: for an undersampled bandpass signal the per-channel
sample power converges slowly when the folded carrier phase advances by
nearly 0 or nearly pi per sample (``fc / B`` close to an integer or
half-integer), because the ``cos(2*theta)`` term of the instantaneous power
then beats slowly across the record.  Use records of a few thousand samples
(or check the band position) before trusting the gain estimate; the offset
estimate does not suffer from this effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError, ValidationError
from ..sampling.reconstruction import NonuniformSampleSet

__all__ = ["GainOffsetEstimate", "estimate_gain_offset", "correct_gain_offset"]


@dataclass(frozen=True)
class GainOffsetEstimate:
    """Estimated static mismatch between the two channels.

    Attributes
    ----------
    offset0, offset1:
        Estimated additive offsets of channels 0 and 1.
    relative_gain:
        Estimated gain of channel 1 relative to channel 0 (1.0 = matched).
    """

    offset0: float
    offset1: float
    relative_gain: float


def estimate_gain_offset(sample_set: NonuniformSampleSet) -> GainOffsetEstimate:
    """Estimate offsets and relative gain from one acquisition.

    Offsets are the per-channel sample means (a bandpass signal has no DC
    component, so any mean is converter offset).  The relative gain is the
    ratio of the RMS values after offset removal.
    """
    if not isinstance(sample_set, NonuniformSampleSet):
        raise ValidationError("sample_set must be a NonuniformSampleSet")
    offset0 = float(np.mean(sample_set.on_grid))
    offset1 = float(np.mean(sample_set.delayed))
    rms0 = float(np.std(sample_set.on_grid))
    rms1 = float(np.std(sample_set.delayed))
    if rms0 <= 0.0 or rms1 <= 0.0:
        raise CalibrationError("one of the channels carries no signal; cannot estimate gain")
    return GainOffsetEstimate(offset0=offset0, offset1=offset1, relative_gain=rms1 / rms0)


def correct_gain_offset(sample_set: NonuniformSampleSet) -> NonuniformSampleSet:
    """Return a copy of ``sample_set`` with its own static mismatch removed.

    The mismatch is estimated from the same acquisition
    (:func:`estimate_gain_offset`).  Channel 0 is taken as the reference: its
    offset is removed, and channel 1 is offset-corrected and rescaled onto
    channel 0's gain.
    """
    estimate = estimate_gain_offset(sample_set)
    corrected0 = sample_set.on_grid - estimate.offset0
    corrected1 = (sample_set.delayed - estimate.offset1) / estimate.relative_gain
    return sample_set.with_channels(corrected0, corrected1)
