"""Seeded symbol-index source for transmitter stimuli."""

from __future__ import annotations

import numpy as np

from ..utils.rng import SeedLike, ensure_generator
from ..utils.validation import check_integer
from .constellations import Constellation

__all__ = ["SymbolSource"]


class SymbolSource:
    """A reusable, seeded source of uniform constellation symbol indices.

    Parameters
    ----------
    constellation:
        The constellation to draw from.
    seed:
        Seed or generator controlling the index stream.

    Examples
    --------
    >>> from repro.signals import qpsk
    >>> source = SymbolSource(qpsk(), seed=1234)
    >>> indices = source.draw_indices(8)
    >>> len(indices)
    8
    """

    def __init__(self, constellation: Constellation, seed: SeedLike = None) -> None:
        self._constellation = constellation
        self._rng = ensure_generator(seed)

    def draw_indices(self, count: int) -> np.ndarray:
        """Draw ``count`` uniform symbol indices."""
        count = check_integer(count, "count", minimum=1)
        return self._rng.integers(0, self._constellation.order, size=count, dtype=np.int64)
