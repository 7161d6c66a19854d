"""Quadrature-modulator impairments: IQ imbalance, DC offset / LO leakage.

In a homodyne (zero-IF) transmitter the I and Q paths are analog up to the
mixer, so their gains and phases never match exactly and DC offsets leak the
local oscillator into the output.  These impairments distort the constellation
(EVM) and create an image / carrier spur in the spectrum, both of which the
BIST measurements must be able to observe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.units import db_to_amplitude_ratio
from ..utils.validation import check_finite

__all__ = ["IqImbalance", "DcOffset"]


@dataclass(frozen=True)
class IqImbalance:
    """Gain and phase imbalance between the I and Q branches.

    The impairment model applied to the complex envelope ``x`` is the usual
    two-coefficient form

    ``y = mu * x + nu * conj(x)``

    with ``mu = (1 + g*exp(j*phi)) / 2`` and ``nu = (1 - g*exp(j*phi)) / 2``,
    where ``g`` is the amplitude imbalance (linear) and ``phi`` the phase
    imbalance (radians).  A perfectly balanced modulator has ``mu = 1`` and
    ``nu = 0``; the conjugate term creates the image sideband.

    Parameters
    ----------
    gain_imbalance_db:
        Amplitude imbalance between branches in dB (0 = balanced).
    phase_imbalance_deg:
        Phase imbalance in degrees (0 = perfect quadrature).
    """

    gain_imbalance_db: float = 0.0
    phase_imbalance_deg: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self.gain_imbalance_db, "gain_imbalance_db")
        check_finite(self.phase_imbalance_deg, "phase_imbalance_deg")

    @property
    def mu(self) -> complex:
        """Direct-path coefficient."""
        g = db_to_amplitude_ratio(self.gain_imbalance_db)
        phi = np.deg2rad(self.phase_imbalance_deg)
        return complex((1.0 + g * np.exp(1j * phi)) / 2.0)

    @property
    def nu(self) -> complex:
        """Image-path (conjugate) coefficient."""
        g = db_to_amplitude_ratio(self.gain_imbalance_db)
        phi = np.deg2rad(self.phase_imbalance_deg)
        return complex((1.0 - g * np.exp(1j * phi)) / 2.0)

    @property
    def is_ideal(self) -> bool:
        """Whether the modulator is perfectly balanced."""
        return self.gain_imbalance_db == 0.0 and self.phase_imbalance_deg == 0.0

    def apply(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Apply the imbalance to a complex envelope."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        if self.is_ideal:
            return envelope
        samples = self.mu * envelope.samples + self.nu * np.conj(envelope.samples)
        return envelope.with_samples(samples)


@dataclass(frozen=True)
class DcOffset:
    """DC offset on the I branch (LO leakage at the carrier).

    Parameters
    ----------
    i_offset:
        Additive offset, expressed as a fraction of the RMS envelope of a
        unit-power signal (i.e. it is added directly to the normalised
        complex envelope).  The Q branch carries none.
    """

    i_offset: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self.i_offset, "i_offset")

    @property
    def complex_offset(self) -> complex:
        """The offset as a single complex number."""
        return complex(self.i_offset, 0.0)

    @property
    def is_ideal(self) -> bool:
        """Whether the offset is zero."""
        return self.i_offset == 0.0

    def apply(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Add the DC offset to a complex envelope."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        if self.is_ideal:
            return envelope
        return envelope.with_samples(envelope.samples + self.complex_offset)
