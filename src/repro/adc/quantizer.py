"""Uniform amplitude quantisation.

The BP-TIADC of the paper uses two 10-bit converters.  The quantizer model is
a mid-rise uniform quantizer with symmetric clipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import check_integer, check_positive

__all__ = ["UniformQuantizer"]


@dataclass(frozen=True)
class UniformQuantizer:
    """Mid-rise uniform quantizer with symmetric clipping.

    Parameters
    ----------
    resolution_bits:
        Number of bits; the quantizer has ``2**resolution_bits`` levels.
    full_scale:
        Full-scale amplitude: inputs are clipped to ``[-full_scale, +full_scale)``.
    """

    resolution_bits: int = 10
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        check_integer(self.resolution_bits, "resolution_bits", minimum=1)
        check_positive(self.full_scale, "full_scale")

    @property
    def num_levels(self) -> int:
        """Number of quantisation levels."""
        return 2**self.resolution_bits

    @property
    def step_size(self) -> float:
        """Quantisation step (LSB size)."""
        return 2.0 * self.full_scale / self.num_levels

    def quantize(self, values) -> np.ndarray:
        """Quantise ``values`` to the mid-rise reconstruction levels."""
        values = np.asarray(values, dtype=float)
        step = self.step_size
        # Mid-rise: decision thresholds at multiples of the step, reconstruction
        # points offset by half a step; clip codes to the representable range.
        codes = np.floor(values / step)
        codes = np.clip(codes, -self.num_levels // 2, self.num_levels // 2 - 1)
        return (codes + 0.5) * step
