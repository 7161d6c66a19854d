"""Channel mismatch description for time-interleaved converters.

The paper identifies three mismatch classes between the two ADC channels of
the BP-TIADC: offset error, gain error and time-skew.  Offset and gain are
simple to calibrate digitally (Section III); the time-skew is the critical
one and is the subject of the paper's estimation algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..utils.validation import check_positive

__all__ = ["ChannelMismatch"]


@dataclass(frozen=True)
class ChannelMismatch:
    """Static non-idealities of a single converter channel.

    Attributes
    ----------
    offset:
        Additive offset at the channel output (same units as the signal).
    gain_error:
        Multiplicative gain error; the channel gain is ``1 + gain_error``.
    skew_seconds:
        Deterministic sampling-instant error of the channel relative to its
        nominal clock edge.  Positive skew samples late.

    Random sampling-instant error is the converter's, not a channel's: see
    :attr:`~repro.adc.tiadc.BpTiadc.skew_jitter_rms_seconds`.
    """

    offset: float = 0.0
    gain_error: float = 0.0
    skew_seconds: float = 0.0

    @property
    def gain(self) -> float:
        """The channel's multiplicative gain ``1 + gain_error``."""
        return 1.0 + self.gain_error

    @property
    def is_ideal(self) -> bool:
        """Whether the channel has no static impairment."""
        return self.offset == 0.0 and self.gain_error == 0.0 and self.skew_seconds == 0.0

    def with_input_bandwidth(
        self, bandwidth_hz: float, reference_frequency_hz: float
    ) -> "ChannelMismatch":
        """Fold a single-pole input-bandwidth limitation into this mismatch.

        A track-and-hold whose analog input bandwidth ``f_bw`` is not far
        above the sampled carrier behaves, for a narrowband signal at
        ``reference_frequency_hz``, like an ideal sampler preceded by the
        single-pole response ``H(f) = 1 / (1 + j f / f_bw)``: the carrier is
        attenuated by ``|H|`` and shifted by the *phase delay*
        ``atan(f / f_bw) / (2 pi f)``.  The phase delay (not the smaller
        group delay ``(1 / (2 pi f_bw)) / (1 + (f / f_bw)^2)``) is the right
        equivalence here because the sampled quantity is the RF waveform
        itself: the carrier phase error dominates the converted values, and
        the envelope misalignment is second-order for bands narrow relative
        to the carrier.  Folding those two numbers into the channel's gain
        error and deterministic skew models the paper's "bandwidth mismatch"
        class without leaving the static-mismatch abstraction; an
        inter-channel bandwidth difference therefore shows up as a gain
        *and* timing mismatch, exactly as in hardware.

        Parameters
        ----------
        bandwidth_hz:
            -3 dB input bandwidth of the channel's sample-and-hold.
        reference_frequency_hz:
            Narrowband centre frequency the equivalence is evaluated at
            (the acquisition carrier for the BP-TIADC).
        """
        bandwidth_hz = check_positive(bandwidth_hz, "bandwidth_hz")
        reference_frequency_hz = check_positive(reference_frequency_hz, "reference_frequency_hz")
        ratio = reference_frequency_hz / bandwidth_hz
        gain_scale = 1.0 / float(np.sqrt(1.0 + ratio**2))
        extra_delay = float(np.arctan(ratio)) / (2.0 * np.pi * reference_frequency_hz)
        return replace(
            self,
            gain_error=self.gain * gain_scale - 1.0,
            skew_seconds=self.skew_seconds + extra_delay,
        )

    def apply_static(self, values: np.ndarray) -> np.ndarray:
        """Apply the offset and gain errors to already-sampled values."""
        return self.gain * np.asarray(values, dtype=float) + self.offset
