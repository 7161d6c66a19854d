"""Uniform (first-order) bandpass sampling theory.

Implements the classical Vaughan/Scott/White analysis the paper summarises in
Section II-A and Figure 3: for a bandpass signal occupying
``[f_l, f_h] = [f_h - B, f_h]``, uniform sampling at rate ``f_s`` avoids
aliasing iff

    ``2 * f_h / n  <=  f_s  <=  2 * f_l / (n - 1)``

for some integer ``n`` with ``1 <= n <= floor(f_h / B)``.  The module
provides the aliasing predicate, the complete list of acceptable rate ranges,
the minimum alias-free rate, the guard margin available around a chosen rate
(which is what Fig. 3b illustrates: kHz-level precision is required near the
minimum rate for a 30 MHz band at 2 GHz) and the grid data used by the
Fig. 3a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AliasingError, ValidationError
from ..utils.validation import check_positive

__all__ = [
    "BandpassBand",
    "SamplingRateRange",
    "valid_rate_ranges",
    "is_alias_free",
    "minimum_sampling_rate",
    "wedge_index",
    "rate_margin",
    "folded_frequency",
    "alias_free_grid",
    "required_rate_precision",
]


@dataclass(frozen=True)
class BandpassBand:
    """A bandpass spectral support ``[f_low, f_high]`` with ``B = f_high - f_low``.

    The paper's Figure 2: signal limited to ``f_l < |nu| < f_l + B``.
    """

    f_low: float
    f_high: float

    def __post_init__(self) -> None:
        f_low = check_positive(self.f_low, "f_low")
        f_high = check_positive(self.f_high, "f_high")
        if f_high <= f_low:
            raise ValidationError(f"f_high ({f_high}) must exceed f_low ({f_low})")
        object.__setattr__(self, "f_low", f_low)
        object.__setattr__(self, "f_high", f_high)

    @classmethod
    def from_centre(cls, centre_hz: float, bandwidth_hz: float) -> "BandpassBand":
        """Build a band from its centre frequency and bandwidth."""
        centre_hz = check_positive(centre_hz, "centre_hz")
        bandwidth_hz = check_positive(bandwidth_hz, "bandwidth_hz")
        if bandwidth_hz / 2.0 >= centre_hz:
            raise ValidationError("bandwidth must be smaller than twice the centre frequency")
        return cls(centre_hz - bandwidth_hz / 2.0, centre_hz + bandwidth_hz / 2.0)

    @property
    def bandwidth(self) -> float:
        """Band width ``B`` in Hz."""
        return self.f_high - self.f_low

    @property
    def centre(self) -> float:
        """Band centre ``fc`` in Hz."""
        return (self.f_low + self.f_high) / 2.0

    @property
    def maximum_wedge_index(self) -> int:
        """Largest usable ``n`` (number of alias-free rate ranges), ``floor(f_high / B)``."""
        return int(np.floor(self.f_high / self.bandwidth + 1e-12))


@dataclass(frozen=True)
class SamplingRateRange:
    """One alias-free sampling-rate interval ``[minimum_hz, maximum_hz]``.

    ``wedge_index`` is the integer ``n`` of the Vaughan inequality that
    generates the interval; ``n = 1`` corresponds to classic oversampling
    (``f_s >= 2 * f_high``).
    """

    wedge_index: int
    minimum_hz: float
    maximum_hz: float

    @property
    def width_hz(self) -> float:
        """Width of the acceptable interval (the implementation margin)."""
        return self.maximum_hz - self.minimum_hz


def valid_rate_ranges(band: BandpassBand, max_rate_hz: float | None = None) -> list[SamplingRateRange]:
    """All alias-free uniform sampling-rate ranges for ``band``.

    Parameters
    ----------
    band:
        The bandpass support.
    max_rate_hz:
        If given, the ``n = 1`` range (which is unbounded above) and any range
        starting above this limit are clipped/dropped accordingly.

    Returns
    -------
    list of SamplingRateRange
        Ranges sorted from the lowest (largest ``n``) to the highest rates.
    """
    ranges: list[SamplingRateRange] = []
    for n in range(band.maximum_wedge_index, 0, -1):
        low = 2.0 * band.f_high / n
        high = 2.0 * band.f_low / (n - 1) if n > 1 else np.inf
        if high < low:
            # Degenerate wedge (only possible through floating-point edge cases).
            continue
        if max_rate_hz is not None:
            if low > max_rate_hz:
                continue
            high = min(high, max_rate_hz)
        ranges.append(SamplingRateRange(wedge_index=n, minimum_hz=low, maximum_hz=high))
    return ranges


def is_alias_free(band: BandpassBand, sample_rate_hz: float) -> bool:
    """Whether uniform sampling of ``band`` at ``sample_rate_hz`` avoids aliasing."""
    sample_rate_hz = check_positive(sample_rate_hz, "sample_rate_hz")
    if sample_rate_hz < 2.0 * band.bandwidth:
        return False
    n_float = 2.0 * band.f_high / sample_rate_hz
    n = int(np.ceil(n_float - 1e-12))
    n = max(n, 1)
    if n > band.maximum_wedge_index:
        return False
    low = 2.0 * band.f_high / n
    high = 2.0 * band.f_low / (n - 1) if n > 1 else np.inf
    return low - 1e-9 <= sample_rate_hz <= high + 1e-9


def wedge_index(band: BandpassBand, sample_rate_hz: float) -> int:
    """The integer ``n`` of the alias-free wedge containing ``sample_rate_hz``.

    Raises
    ------
    AliasingError
        If the rate does not fall in any alias-free wedge.
    """
    if not is_alias_free(band, sample_rate_hz):
        raise AliasingError(
            f"sampling at {sample_rate_hz} Hz aliases the band "
            f"[{band.f_low}, {band.f_high}] Hz"
        )
    return int(np.ceil(2.0 * band.f_high / sample_rate_hz - 1e-12))


def minimum_sampling_rate(band: BandpassBand) -> float:
    """The lowest alias-free uniform sampling rate, ``2 * f_high / floor(f_high / B)``.

    Equals the theoretical minimum ``2B`` only when ``f_high`` is an integer
    multiple of ``B`` (integer band positioning).
    """
    return 2.0 * band.f_high / band.maximum_wedge_index


def rate_margin(band: BandpassBand, sample_rate_hz: float) -> tuple[float, float]:
    """Margin (Hz) from ``sample_rate_hz`` down/up to the enclosing wedge edges.

    Returns
    -------
    tuple
        ``(margin_down_hz, margin_up_hz)``: how much the rate can decrease or
        increase before aliasing starts.  This is the "sampling precision"
        requirement the paper derives from Fig. 3b.
    """
    n = wedge_index(band, sample_rate_hz)
    low = 2.0 * band.f_high / n
    high = 2.0 * band.f_low / (n - 1) if n > 1 else np.inf
    return (sample_rate_hz - low, high - sample_rate_hz)


def required_rate_precision(band: BandpassBand, sample_rate_hz: float) -> float:
    """The tighter of the two wedge margins around ``sample_rate_hz``.

    A clock that must stay alias-free needs an absolute frequency accuracy
    better than this value.  Near the minimum rate of a high ``f_h / B`` band
    this shrinks to a few kHz, which is the paper's argument (Section II-A)
    for moving to nonuniform sampling.
    """
    down, up = rate_margin(band, sample_rate_hz)
    return float(min(down, up))


def folded_frequency(frequency_hz: float, sample_rate_hz: float) -> float:
    """Apparent (folded) frequency of a tone after uniform sampling.

    The tone at ``frequency_hz`` appears at this frequency inside the first
    Nyquist zone ``[0, fs/2]``.
    """
    frequency_hz = check_positive(frequency_hz, "frequency_hz")
    sample_rate_hz = check_positive(sample_rate_hz, "sample_rate_hz")
    remainder = np.fmod(frequency_hz, sample_rate_hz)
    return float(min(remainder, sample_rate_hz - remainder))


def alias_free_grid(
    position_ratios,
    normalised_rates,
) -> np.ndarray:
    """Boolean grid of alias-free operating points for Fig. 3a.

    Parameters
    ----------
    position_ratios:
        Values of ``f_high / B`` (the x-axis of Fig. 3a).
    normalised_rates:
        Values of ``f_s / B`` (the y-axis of Fig. 3a).

    Returns
    -------
    numpy.ndarray
        Boolean matrix of shape ``(len(normalised_rates), len(position_ratios))``
        that is ``True`` where sampling is alias-free (the white regions of
        Fig. 3a) and ``False`` where aliasing occurs (the grey regions).
    """
    position_ratios = np.asarray(position_ratios, dtype=float)
    normalised_rates = np.asarray(normalised_rates, dtype=float)
    if np.any(position_ratios < 1.0):
        raise ValidationError("f_high / B ratios below 1 are not physical (f_low would be negative)")
    grid = np.zeros((normalised_rates.size, position_ratios.size), dtype=bool)
    for column, ratio in enumerate(position_ratios):
        # Work with B = 1 Hz without loss of generality.
        band = BandpassBand(f_low=max(ratio - 1.0, 1e-12), f_high=ratio)
        for row, rate in enumerate(normalised_rates):
            if rate <= 0.0:
                continue
            grid[row, column] = is_alias_free(band, rate)
    return grid
