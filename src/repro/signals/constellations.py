"""Digital constellations: Gray-coded symbol mapping.

The paper's test stimulus is a QPSK symbol stream; the multistandard BIST
campaign additionally exercises BPSK, 8-PSK and square QAM constellations.
Every constellation is normalised to unit average symbol energy so that the
transmitter models can reason about power independently of the modulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..utils.validation import check_1d_array, check_integer, check_power_of_two

__all__ = [
    "Constellation",
    "bpsk",
    "qpsk",
    "psk",
    "qam",
    "get_constellation",
    "AVAILABLE_CONSTELLATIONS",
]

#: Names accepted by :func:`get_constellation`.
AVAILABLE_CONSTELLATIONS = ("bpsk", "qpsk", "8psk", "16qam", "64qam", "256qam")


def _gray_code(order: int) -> np.ndarray:
    """Return the ``order``-element binary-reflected Gray code sequence."""
    n = np.arange(order)
    return n ^ (n >> 1)


@dataclass(frozen=True)
class Constellation:
    """An M-ary complex constellation with unit average energy.

    Attributes
    ----------
    name:
        Human-readable constellation name (``"qpsk"``, ``"16qam"``...).
    points:
        Complex constellation points, indexed by symbol value.  The mapping is
        Gray-coded where meaningful, and the set is normalised so that
        ``mean(|points|**2) == 1``.
    bits_per_symbol:
        ``log2(len(points))``.
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int = field(init=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=complex)
        if points.ndim != 1 or points.size < 2:
            raise ValidationError("a constellation needs at least two points")
        order = points.size
        if order & (order - 1) != 0:
            raise ValidationError(f"constellation order must be a power of two, got {order}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bits_per_symbol", int(np.log2(order)))

    @property
    def order(self) -> int:
        """Number of constellation points (M)."""
        return int(self.points.size)

    def map(self, symbols) -> np.ndarray:
        """Map integer symbol indices to complex constellation points."""
        symbols = check_1d_array(symbols, "symbols")
        symbols = symbols.astype(np.int64, copy=False)
        if np.any((symbols < 0) | (symbols >= self.order)):
            raise ValidationError(
                f"symbol indices must lie in [0, {self.order - 1}] for {self.name}"
            )
        return self.points[symbols]

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.order


def _normalise(points: np.ndarray) -> np.ndarray:
    """Scale ``points`` to unit average energy."""
    energy = np.mean(np.abs(points) ** 2)
    return points / np.sqrt(energy)


def bpsk() -> Constellation:
    """Binary phase-shift keying: two antipodal points on the real axis."""
    return Constellation("bpsk", np.array([1.0 + 0.0j, -1.0 + 0.0j]))


def psk(order: int, name: str | None = None) -> Constellation:
    """M-ary phase-shift keying with Gray-coded symbol mapping.

    Points are placed on the unit circle starting at ``pi / order`` (so QPSK
    points sit on the diagonals, matching the usual convention).
    """
    order = check_power_of_two(order, "order")
    if order < 2:
        raise ValidationError("PSK order must be at least 2")
    gray = _gray_code(order)
    # Position i on the circle carries the symbol value gray[i]; invert the
    # permutation so points[symbol] is the point whose Gray label is `symbol`.
    angles = np.pi / order + 2.0 * np.pi * np.arange(order) / order
    points = np.empty(order, dtype=complex)
    points[gray] = np.exp(1j * angles)
    label = name or (f"{order}psk" if order != 4 else "qpsk")
    return Constellation(label, _normalise(points))


def qpsk() -> Constellation:
    """Quadrature phase-shift keying (the paper's test stimulus)."""
    return psk(4, name="qpsk")


def qam(order: int) -> Constellation:
    """Square M-QAM with per-axis Gray coding and unit average energy."""
    order = check_power_of_two(order, "order")
    side = int(round(np.sqrt(order)))
    if side * side != order:
        raise ValidationError(f"square QAM requires a square order, got {order}")
    bits_per_axis = int(np.log2(side))
    gray = _gray_code(side)
    # Pulse-amplitude levels ordered so that level index == Gray label.
    levels = np.empty(side, dtype=float)
    levels[gray] = 2.0 * np.arange(side) - (side - 1)
    symbols = np.arange(order)
    i_index = symbols >> bits_per_axis
    q_index = symbols & (side - 1)
    points = levels[i_index] + 1j * levels[q_index]
    return Constellation(f"{order}qam", _normalise(points))


def get_constellation(name: str) -> Constellation:
    """Look up a constellation by its canonical name.

    Accepted names are listed in :data:`AVAILABLE_CONSTELLATIONS`.
    """
    key = str(name).lower().replace("-", "").replace("_", "")
    if key == "bpsk":
        return bpsk()
    if key in ("qpsk", "4psk", "4qam"):
        return qpsk()
    if key == "8psk":
        return psk(8)
    if key[:-3].isdigit() and key.endswith("qam"):
        return qam(check_integer(int(key[:-3]), "QAM order", minimum=4))
    if key[:-3].isdigit() and key.endswith("psk"):
        return psk(check_integer(int(key[:-3]), "PSK order", minimum=2))
    raise ValidationError(
        f"unknown constellation {name!r}; expected one of {AVAILABLE_CONSTELLATIONS}"
    )
