"""Additive noise models: fixed-power and SNR-targeted white noise.

The paper notes that bandpass sampling aliases wideband thermal noise into
the band of interest but argues this does not matter for transmitter
characterisation at high signal levels; the noise models here let the
benchmarks verify that claim by sweeping the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.rng import SeedLike, ensure_generator

__all__ = ["AdditiveWhiteNoise", "add_noise_for_snr"]


@dataclass(frozen=True)
class AdditiveWhiteNoise:
    """Complex additive white Gaussian noise of a fixed power.

    Parameters
    ----------
    power:
        Total complex noise power (variance of the complex samples).
    seed:
        Randomness control.
    """

    power: float
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.power < 0.0:
            raise ValidationError("noise power must be non-negative")

    def apply(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Add white Gaussian noise to a complex envelope."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        if self.power == 0.0:
            return envelope
        rng = ensure_generator(self.seed)
        scale = np.sqrt(self.power / 2.0)
        noise = rng.normal(0.0, scale, size=len(envelope)) + 1j * rng.normal(
            0.0, scale, size=len(envelope)
        )
        return envelope.with_samples(envelope.samples + noise)


def add_noise_for_snr(envelope: ComplexEnvelope, snr_db: float, seed: SeedLike = None) -> ComplexEnvelope:
    """Add white noise so that the resulting record has the requested SNR."""
    if not isinstance(envelope, ComplexEnvelope):
        raise ValidationError("envelope must be a ComplexEnvelope")
    signal_power = envelope.mean_power()
    if signal_power <= 0.0:
        raise ValidationError("cannot set an SNR on an all-zero envelope")
    noise_power = signal_power / (10.0 ** (float(snr_db) / 10.0))
    return AdditiveWhiteNoise(power=noise_power, seed=seed).apply(envelope)
