"""Quadrature modulator / upconverter behavioural model.

In the complex-envelope domain the ideal quadrature modulator is simply the
association of the envelope with a carrier frequency; its non-idealities (IQ
imbalance, LO leakage, LO phase noise) act on the envelope before that
association.  :class:`QuadratureModulator` composes those impairments; the
transmitter chain amplifies the impaired envelope and associates it with the
carrier as a :class:`~repro.signals.passband.ModulatedPassbandSignal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from .impairments import DcOffset, IqImbalance
from .oscillator import LocalOscillator

__all__ = ["QuadratureModulator"]


@dataclass(frozen=True)
class QuadratureModulator:
    """Direct-conversion (homodyne) quadrature upconverter.

    Parameters
    ----------
    local_oscillator:
        The RF LO; its phase noise rotates the envelope.
    iq_imbalance:
        Gain/phase imbalance between the I and Q branches.
    dc_offset:
        Branch DC offsets (LO leakage).
    """

    local_oscillator: LocalOscillator
    iq_imbalance: IqImbalance = field(default_factory=IqImbalance)
    dc_offset: DcOffset = field(default_factory=DcOffset)

    def __post_init__(self) -> None:
        if not isinstance(self.local_oscillator, LocalOscillator):
            raise ValidationError("local_oscillator must be a LocalOscillator")

    def impair_envelope(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Apply the modulator impairments (imbalance, offset, phase noise)."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        impaired = self.iq_imbalance.apply(envelope)
        impaired = self.dc_offset.apply(impaired)
        impaired = self.local_oscillator.apply_phase_noise(impaired)
        return impaired
