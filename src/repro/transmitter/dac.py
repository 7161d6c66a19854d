"""Transmit DAC model: amplitude quantisation of the I/Q branches.

The I/Q DACs of the homodyne transmitter are modelled at the envelope level
as amplitude quantisation to the configured resolution.  For the paper's
experiments the DAC is effectively transparent (14-bit converters); the
resolution exists so that converter faults can be injected by the BIST
campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ValidationError
from ..signals.baseband import ComplexEnvelope
from ..utils.validation import check_integer

__all__ = ["TransmitDac"]


@dataclass(frozen=True)
class TransmitDac:
    """Behavioural model of the I/Q transmit DAC pair.

    Parameters
    ----------
    resolution_bits:
        DAC resolution; quantisation is applied symmetrically around zero
        over the :attr:`full_scale` range.
    """

    resolution_bits: int = 14

    #: Peak amplitude representable by the converter (per branch).
    full_scale: ClassVar[float] = 4.0

    def __post_init__(self) -> None:
        check_integer(self.resolution_bits, "resolution_bits", minimum=1)

    @property
    def step_size(self) -> float:
        """Quantisation step of each branch."""
        return 2.0 * self.full_scale / (2**self.resolution_bits)

    def _quantise_branch(self, values: np.ndarray) -> np.ndarray:
        clipped = np.clip(values, -self.full_scale, self.full_scale - self.step_size)
        return np.round(clipped / self.step_size) * self.step_size

    def convert(self, envelope: ComplexEnvelope) -> ComplexEnvelope:
        """Convert a digital complex envelope to its analog representation."""
        if not isinstance(envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        i_branch = self._quantise_branch(envelope.samples.real)
        q_branch = self._quantise_branch(envelope.samples.imag)
        return envelope.with_samples(i_branch + 1j * q_branch)
