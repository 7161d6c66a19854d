"""Complex-envelope (baseband-equivalent) waveform container.

The behavioural transmitter chain operates on the complex envelope of the RF
signal: a uniformly sampled complex record whose sample rate only needs to
cover the modulation bandwidth (plus nonlinearity-induced regrowth), not the
carrier frequency.  :class:`ComplexEnvelope` bundles the samples with their
sample rate and start time and offers the handful of operations the models
need (power scaling, filtering, time evaluation between grid points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.interpolation import sinc_interpolate
from ..errors import ValidationError
from ..utils.validation import check_1d_array, check_non_negative, check_positive

__all__ = ["ComplexEnvelope"]


@dataclass(frozen=True)
class ComplexEnvelope:
    """A uniformly sampled complex envelope.

    Attributes
    ----------
    samples:
        Complex envelope samples ``i[n] + 1j * q[n]``.
    sample_rate:
        Envelope sampling rate in Hz.
    start_time:
        Absolute time (seconds) of ``samples[0]``.
    """

    samples: np.ndarray
    sample_rate: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        samples = check_1d_array(self.samples, "samples", dtype=complex)
        sample_rate = check_positive(self.sample_rate, "sample_rate")
        start_time = float(self.start_time)
        if not np.isfinite(start_time):
            raise ValidationError("start_time must be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", sample_rate)
        object.__setattr__(self, "start_time", start_time)

    # ------------------------------------------------------------------ #
    # Basic descriptors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Record duration in seconds (number of samples over the rate)."""
        return self.samples.size / self.sample_rate

    @property
    def end_time(self) -> float:
        """Time just past the last sample."""
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        """Time stamps of every sample."""
        return self.start_time + np.arange(self.samples.size) / self.sample_rate

    def mean_power(self) -> float:
        """Mean envelope power ``mean(|samples|^2)``."""
        return float(np.mean(np.abs(self.samples) ** 2))

    # ------------------------------------------------------------------ #
    # Transformations (all return new instances; the container is frozen)
    # ------------------------------------------------------------------ #
    def with_samples(self, samples) -> "ComplexEnvelope":
        """Return a copy with different samples but the same timing metadata."""
        return ComplexEnvelope(samples, self.sample_rate, self.start_time)

    def scaled(self, factor: complex) -> "ComplexEnvelope":
        """Multiply the envelope by a complex factor."""
        return self.with_samples(self.samples * factor)

    def scaled_to_power(self, target_power: float) -> "ComplexEnvelope":
        """Scale so that the mean envelope power equals ``target_power``."""
        target_power = check_non_negative(target_power, "target_power")
        current = self.mean_power()
        if current <= 0.0:
            raise ValidationError("cannot rescale an all-zero envelope")
        return self.scaled(np.sqrt(target_power / current))

    def delayed(self, delay_seconds: float) -> "ComplexEnvelope":
        """Shift the record's time axis (metadata only; samples unchanged)."""
        return ComplexEnvelope(self.samples, self.sample_rate, self.start_time + float(delay_seconds))

    # ------------------------------------------------------------------ #
    # Continuous-time evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, times) -> np.ndarray:
        """Evaluate the envelope at arbitrary times via 32-tap band-limited interpolation."""
        return sinc_interpolate(
            self.samples, self.sample_rate, times, start_time=self.start_time, num_taps=32
        )

    def __add__(self, other: "ComplexEnvelope") -> "ComplexEnvelope":
        """Sum two envelopes defined on the same grid."""
        if not isinstance(other, ComplexEnvelope):
            return NotImplemented
        if (
            other.samples.size != self.samples.size
            or not np.isclose(other.sample_rate, self.sample_rate)
            or not np.isclose(other.start_time, self.start_time)
        ):
            raise ValidationError("envelopes must share the same grid to be added")
        return self.with_samples(self.samples + other.samples)
