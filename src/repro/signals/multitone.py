"""Exact tone and multitone test stimuli.

Single tones are the classic ADC/TIADC calibration stimulus (the Jamal
sine-fit baseline requires one) and exact multitone signals make excellent
ground truth for the nonuniform reconstruction: they can be evaluated in
closed form at any time instant, so reconstruction error can be measured
without any interpolation uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..utils.rng import SeedLike, ensure_generator
from ..utils.validation import check_1d_array, check_integer, check_positive
from .passband import AnalogSignal

__all__ = ["ToneSignal", "single_tone", "multitone_in_band"]


@dataclass(frozen=True)
class ToneSignal(AnalogSignal):
    """Sum of real sinusoids, evaluated in closed form.

    ``f(t) = sum_i amplitudes[i] * cos(2*pi*frequencies[i]*t + phases[i])``

    Attributes
    ----------
    frequencies_hz:
        Tone frequencies (Hz), strictly positive.
    amplitudes:
        Peak amplitude of every tone.
    phases:
        Initial phase (radians) of every tone.
    """

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        frequencies = check_1d_array(self.frequencies_hz, "frequencies_hz", dtype=float)
        amplitudes = check_1d_array(self.amplitudes, "amplitudes", dtype=float)
        if frequencies.size != amplitudes.size:
            raise ValidationError("frequencies_hz and amplitudes must have the same length")
        if np.any(frequencies <= 0.0):
            raise ValidationError("all tone frequencies must be strictly positive")
        if self.phases is None:
            phases = np.zeros_like(frequencies)
        else:
            phases = check_1d_array(self.phases, "phases", dtype=float)
            if phases.size != frequencies.size:
                raise ValidationError("phases must have the same length as frequencies_hz")
        object.__setattr__(self, "frequencies_hz", frequencies)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "phases", phases)

    @property
    def band(self) -> tuple[float, float]:
        return (float(self.frequencies_hz.min()), float(self.frequencies_hz.max()))

    def evaluate(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        arguments = 2.0 * np.pi * np.outer(times, self.frequencies_hz) + self.phases[None, :]
        return np.sum(self.amplitudes[None, :] * np.cos(arguments), axis=1)

    def mean_power(self) -> float:
        """Average power of the multitone (sum of per-tone ``A^2 / 2``)."""
        return float(np.sum(self.amplitudes**2) / 2.0)


def single_tone(frequency_hz: float, amplitude: float = 1.0) -> ToneSignal:
    """Build a single real sinusoid of zero phase."""
    frequency_hz = check_positive(frequency_hz, "frequency_hz")
    amplitude = check_positive(amplitude, "amplitude")
    return ToneSignal(
        frequencies_hz=np.array([frequency_hz]),
        amplitudes=np.array([amplitude]),
        phases=np.array([0.0]),
    )


def multitone_in_band(
    low_hz: float,
    high_hz: float,
    num_tones: int,
    amplitude: float = 1.0,
    seed: SeedLike = None,
) -> ToneSignal:
    """Build a multitone of random phases spread uniformly across ``[low_hz, high_hz]``.

    Parameters
    ----------
    low_hz, high_hz:
        Band edges; tones are placed at ``num_tones`` evenly spaced
        frequencies strictly inside the band (edges excluded).
    num_tones:
        Number of tones.
    amplitude:
        Per-tone amplitude.
    seed:
        Randomness control for the uniform random phases, which reduce the
        crest-factor coherence of the stimulus.
    """
    low_hz = check_positive(low_hz, "low_hz")
    high_hz = check_positive(high_hz, "high_hz")
    if high_hz <= low_hz:
        raise ValidationError("high_hz must exceed low_hz")
    num_tones = check_integer(num_tones, "num_tones", minimum=1)
    amplitude = check_positive(amplitude, "amplitude")
    # Exclude the exact band edges to keep all energy strictly inside the band.
    frequencies = np.linspace(low_hz, high_hz, num_tones + 2)[1:-1]
    phases = ensure_generator(seed).uniform(0.0, 2.0 * np.pi, size=num_tones)
    return ToneSignal(
        frequencies_hz=frequencies,
        amplitudes=np.full(num_tones, amplitude),
        phases=phases,
    )
