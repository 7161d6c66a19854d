"""Behavioural power-amplifier models.

The transmitter output stage is the block whose compliance the BIST must
verify: PA compression and AM/PM conversion create spectral regrowth that
can violate the emission mask.  Three standard memoryless baseband-equivalent
models are provided (they act on the complex envelope):

* :class:`IdealAmplifier` — pure linear gain (the fault-free reference);
* :class:`RappAmplifier` — the Rapp solid-state PA model (AM/AM only);
* :class:`SalehAmplifier` — the Saleh travelling-wave-tube model
  (AM/AM and AM/PM);
* :class:`PolynomialAmplifier` — odd-order complex polynomial
  (third/fifth-order nonlinearity specified through IIP3-style coefficients).

All models expose ``gain(magnitude)``, the complex AM/AM and AM/PM gain at
the given envelope magnitudes, and ``apply(envelope)``, which multiplies each
sample of a :class:`~repro.signals.baseband.ComplexEnvelope` by its gain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.units import db_to_amplitude_ratio
from ..utils.validation import check_finite, check_positive

__all__ = [
    "Amplifier",
    "IdealAmplifier",
    "RappAmplifier",
    "SalehAmplifier",
    "PolynomialAmplifier",
]


class Amplifier(ABC):
    """Common interface of every behavioural PA model."""

    @abstractmethod
    def gain(self, envelope_magnitude: np.ndarray) -> np.ndarray:
        """Complex (AM/AM and AM/PM) gain for the given envelope magnitudes."""

    def apply(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Amplify a complex envelope."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        magnitude = np.abs(envelope.samples)
        return envelope.with_samples(envelope.samples * self.gain(magnitude))


@dataclass(frozen=True)
class IdealAmplifier(Amplifier):
    """Distortion-free amplifier with a fixed voltage gain.

    Parameters
    ----------
    gain_db:
        Power gain in dB.
    """

    gain_db: float = 20.0

    def __post_init__(self) -> None:
        check_finite(self.gain_db, "gain_db")

    def gain(self, envelope_magnitude: np.ndarray) -> np.ndarray:
        linear = db_to_amplitude_ratio(self.gain_db)
        return np.full_like(np.asarray(envelope_magnitude, dtype=float), linear, dtype=complex)


@dataclass(frozen=True)
class RappAmplifier(Amplifier):
    """Rapp model of a solid-state PA (smooth AM/AM limiting, no AM/PM).

    ``|out| = g * |in| / (1 + (g * |in| / Vsat)^(2p))^(1/(2p))``

    Parameters
    ----------
    gain_db:
        Small-signal power gain in dB.
    saturation_amplitude:
        Output saturation amplitude ``Vsat``.
    smoothness:
        The knee sharpness ``p``; large values approach a hard limiter.
    """

    gain_db: float = 20.0
    saturation_amplitude: float = 1.0
    smoothness: float = 2.0

    def __post_init__(self) -> None:
        check_finite(self.gain_db, "gain_db")
        check_positive(self.saturation_amplitude, "saturation_amplitude")
        check_positive(self.smoothness, "smoothness")

    def gain(self, envelope_magnitude: np.ndarray) -> np.ndarray:
        magnitude = np.abs(np.asarray(envelope_magnitude, dtype=float))
        linear = db_to_amplitude_ratio(self.gain_db)
        driven = linear * magnitude
        exponent = 2.0 * self.smoothness
        compression = (1.0 + (driven / self.saturation_amplitude) ** exponent) ** (1.0 / exponent)
        return (linear / compression).astype(complex)


@dataclass(frozen=True)
class SalehAmplifier(Amplifier):
    """Saleh model (AM/AM and AM/PM), the classic TWT amplifier abstraction.

    ``A(r) = alpha_a * r / (1 + beta_a * r^2)``      (output amplitude)
    ``phi(r) = alpha_p * r^2 / (1 + beta_p * r^2)``  (output phase, radians)

    The coefficients are the widely used normalised Saleh ones.
    """

    alpha_amplitude: ClassVar[float] = 2.1587
    beta_amplitude: ClassVar[float] = 1.1517
    alpha_phase: ClassVar[float] = 4.0033
    beta_phase: ClassVar[float] = 9.1040

    def gain(self, envelope_magnitude: np.ndarray) -> np.ndarray:
        magnitude = np.abs(np.asarray(envelope_magnitude, dtype=float))
        squared = magnitude**2
        amplitude_gain = self.alpha_amplitude / (1.0 + self.beta_amplitude * squared)
        phase = self.alpha_phase * squared / (1.0 + self.beta_phase * squared)
        return amplitude_gain * np.exp(1j * phase)


@dataclass(frozen=True)
class PolynomialAmplifier(Amplifier):
    """Odd-order memoryless polynomial PA: ``out = a1*x + a3*x|x|^2 + a5*x|x|^4``.

    The complex coefficients ``a3``/``a5`` set the third- and fifth-order
    nonlinearity (and, through their phases, AM/PM conversion).
    """

    a1: ClassVar[complex] = 10.0 + 0.0j
    a3: ClassVar[complex] = -0.5 + 0.05j
    a5: ClassVar[complex] = 0.0 + 0.0j

    def gain(self, envelope_magnitude: np.ndarray) -> np.ndarray:
        magnitude = np.abs(np.asarray(envelope_magnitude, dtype=float))
        squared = magnitude**2
        return self.a1 + self.a3 * squared + self.a5 * squared**2
