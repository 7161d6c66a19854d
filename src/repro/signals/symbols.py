"""Seeded bit and symbol source for transmitter stimuli."""

from __future__ import annotations

import numpy as np

from ..utils.rng import SeedLike, ensure_generator
from ..utils.validation import check_integer
from .constellations import Constellation

__all__ = ["SymbolSource"]


class SymbolSource:
    """A reusable, seeded source of modulated constellation symbols.

    Parameters
    ----------
    constellation:
        The constellation to draw from.
    seed:
        Seed or generator controlling the bit stream.

    Examples
    --------
    >>> from repro.signals import qpsk
    >>> source = SymbolSource(qpsk(), seed=1234)
    >>> syms = source.draw(8)
    >>> len(syms)
    8
    """

    def __init__(self, constellation: Constellation, seed: SeedLike = None) -> None:
        self._constellation = constellation
        self._rng = ensure_generator(seed)

    @property
    def constellation(self) -> Constellation:
        """The constellation used by this source."""
        return self._constellation

    def draw_indices(self, count: int) -> np.ndarray:
        """Draw ``count`` uniform symbol indices."""
        count = check_integer(count, "count", minimum=1)
        return self._rng.integers(0, self._constellation.order, size=count, dtype=np.int64)

    def draw(self, count: int) -> np.ndarray:
        """Draw ``count`` complex constellation symbols."""
        return self._constellation.map(self.draw_indices(count))

    def draw_bits(self, count_bits: int) -> np.ndarray:
        """Draw ``count_bits`` random bits (multiple of bits-per-symbol not required)."""
        count_bits = check_integer(count_bits, "count_bits", minimum=1)
        return self._rng.integers(0, 2, size=count_bits, dtype=np.int64)
