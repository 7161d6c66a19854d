"""Local-oscillator model with phase noise.

The LO of the homodyne transmitter is modelled as a carrier of nominal
frequency plus a slowly varying random phase.  Two standard abstractions are
provided: a Wiener (random-walk) phase-noise process parameterised by its
linewidth, and a white phase-noise floor parameterised by an RMS jitter.
Phase noise is applied to the *complex envelope* (multiplication by
``exp(j*phi(t))``), which is exactly equivalent to perturbing the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.rng import SeedLike, ensure_generator
from ..utils.validation import check_non_negative, check_positive

__all__ = ["LocalOscillator", "PhaseNoiseModel"]


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Phase-noise description of an oscillator.

    Attributes
    ----------
    linewidth_hz:
        Lorentzian linewidth of the Wiener (random-walk) phase component.
        Zero disables the random walk.
    rms_jitter_seconds:
        RMS white timing jitter; converted to white phase noise at the
        oscillator frequency.  Zero disables the white component.
    """

    linewidth_hz: float = 0.0
    rms_jitter_seconds: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.linewidth_hz, "linewidth_hz")
        check_non_negative(self.rms_jitter_seconds, "rms_jitter_seconds")

    @property
    def is_ideal(self) -> bool:
        """Whether the oscillator is noiseless."""
        return self.linewidth_hz == 0.0 and self.rms_jitter_seconds == 0.0


@dataclass(frozen=True)
class LocalOscillator:
    """A local oscillator with optional phase noise.

    Parameters
    ----------
    frequency_hz:
        Nominal oscillation frequency.
    phase_noise:
        Phase-noise description; defaults to a noiseless oscillator (zero
        phase).
    seed:
        Randomness control for the phase-noise realisation.
    """

    frequency_hz: float
    phase_noise: PhaseNoiseModel = PhaseNoiseModel()
    seed: SeedLike = None

    def __post_init__(self) -> None:
        check_positive(self.frequency_hz, "frequency_hz")

    def phase_realisation(self, num_samples: int, sample_rate: float) -> np.ndarray:
        """Draw a random phase trajectory ``phi[n]`` on a uniform grid."""
        if num_samples <= 0:
            raise ValidationError("num_samples must be positive")
        sample_rate = check_positive(sample_rate, "sample_rate")
        phase = np.zeros(num_samples)
        if self.phase_noise.is_ideal:
            return phase
        rng = ensure_generator(self.seed)
        if self.phase_noise.linewidth_hz > 0.0:
            # Wiener process: variance growth rate 2*pi*linewidth per second.
            increment_std = np.sqrt(2.0 * np.pi * self.phase_noise.linewidth_hz / sample_rate)
            increments = rng.normal(0.0, increment_std, size=num_samples)
            phase = phase + np.cumsum(increments)
        if self.phase_noise.rms_jitter_seconds > 0.0:
            white_std = 2.0 * np.pi * self.frequency_hz * self.phase_noise.rms_jitter_seconds
            phase = phase + rng.normal(0.0, white_std, size=num_samples)
        return phase

    def apply_phase_noise(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Rotate a complex envelope by a fresh phase-noise realisation."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        if self.phase_noise.is_ideal:
            return envelope
        phase = self.phase_realisation(len(envelope), envelope.sample_rate)
        return envelope.with_samples(envelope.samples * np.exp(1j * phase))
