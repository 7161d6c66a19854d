"""Quadrature modulator / upconverter behavioural model.

In the complex-envelope domain the ideal quadrature modulator is simply the
association of the envelope with a carrier frequency; its non-idealities (IQ
imbalance, LO leakage, LO phase noise) act on the envelope before that
association.  :class:`QuadratureModulator` composes those impairments and
produces the :class:`~repro.signals.passband.ModulatedPassbandSignal` that the
rest of the chain (PA, BIST sampler) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..signals.passband import ModulatedPassbandSignal
from ..utils.validation import check_positive
from .impairments import DcOffset, IqImbalance
from .oscillator import LocalOscillator

__all__ = ["QuadratureModulator"]


@dataclass(frozen=True)
class QuadratureModulator:
    """Direct-conversion (homodyne) quadrature upconverter.

    Parameters
    ----------
    local_oscillator:
        The RF LO; its frequency becomes the carrier of the output signal and
        its phase noise rotates the envelope.
    iq_imbalance:
        Gain/phase imbalance between the I and Q branches.
    dc_offset:
        Branch DC offsets (LO leakage).
    occupied_bandwidth_hz:
        Bandwidth declared on the produced passband signal; defaults to the
        envelope sample rate.
    """

    local_oscillator: LocalOscillator
    iq_imbalance: IqImbalance = field(default_factory=IqImbalance)
    dc_offset: DcOffset = field(default_factory=DcOffset)
    occupied_bandwidth_hz: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.local_oscillator, LocalOscillator):
            raise ValidationError("local_oscillator must be a LocalOscillator")
        if self.occupied_bandwidth_hz is not None:
            check_positive(self.occupied_bandwidth_hz, "occupied_bandwidth_hz")

    @property
    def carrier_frequency(self) -> float:
        """Carrier frequency set by the LO."""
        return self.local_oscillator.frequency_hz

    def impair_envelope(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Apply the modulator impairments (imbalance, offset, phase noise)."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        impaired = self.iq_imbalance.apply(envelope)
        impaired = self.dc_offset.apply(impaired)
        impaired = self.local_oscillator.apply_phase_noise(impaired)
        return impaired

    def upconvert(self, envelope: ComplexEnvelope) -> ModulatedPassbandSignal:
        """Produce the RF passband signal for a baseband complex envelope."""
        impaired = self.impair_envelope(envelope)
        return ModulatedPassbandSignal(
            envelope=impaired,
            carrier_frequency=self.carrier_frequency,
            carrier_phase=0.0,
            occupied_bandwidth=self.occupied_bandwidth_hz,
        )
