"""Pulse-shaping filter design and symbol-to-waveform shaping.

The paper shapes 10 MHz QPSK symbols with a square-root raised cosine (SRRC)
filter with roll-off ``alpha = 0.5``.  This module provides the SRRC pulse
prototype plus a :class:`PulseShaper` that turns a symbol stream into an
oversampled complex-envelope waveform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..utils.validation import check_1d_array, check_in_range, check_integer

__all__ = ["root_raised_cosine_taps", "PulseShaper"]


def root_raised_cosine_taps(
    samples_per_symbol: int,
    span_symbols: int,
    rolloff: float,
) -> np.ndarray:
    """Square-root raised-cosine (SRRC) pulse prototype.

    The cascade of two identical SRRC filters is (approximately, for a finite
    span) a raised-cosine Nyquist pulse, which is what matched-filter
    receivers rely on.  Taps are normalised to unit energy.  The closed form
    is 0/0 at ``t = 0`` and at ``|t| = 1/(4 alpha)`` (in symbols); those
    taps take the pulse's limits there.
    """
    sps = check_integer(samples_per_symbol, "samples_per_symbol", minimum=1)
    span = check_integer(span_symbols, "span_symbols", minimum=1)
    alpha = check_in_range(rolloff, "rolloff", 0.0, 1.0)
    num_taps = span * sps + 1
    t = (np.arange(num_taps) - (num_taps - 1) / 2.0) / sps

    if alpha == 0.0:
        taps = np.sinc(t)
    else:
        centre = np.isclose(t, 0.0)
        edge = np.isclose(np.abs(t), 1.0 / (4.0 * alpha)) & ~centre
        regular = ~(centre | edge)
        tr = t[regular]
        taps = np.empty(num_taps, dtype=float)
        # float_power calls pow() per element, as a scalar ``**`` does; an
        # array ``** 2`` multiplies instead and differs in the last bit of
        # some taps.
        taps[regular] = (
            np.sin(np.pi * tr * (1.0 - alpha)) + 4.0 * alpha * tr * np.cos(np.pi * tr * (1.0 + alpha))
        ) / (np.pi * tr * (1.0 - np.float_power(4.0 * alpha * tr, 2.0)))
        taps[centre] = 1.0 - alpha + 4.0 * alpha / np.pi
        if edge.any():  # pi / (4 alpha) overflows for a tiny alpha, which has no edge tap
            taps[edge] = (alpha / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * alpha))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * alpha))
            )
    energy = np.sum(taps**2)
    return taps / np.sqrt(energy)


@dataclass(frozen=True)
class PulseShaper:
    """Turn a complex symbol stream into an oversampled complex envelope.

    Parameters
    ----------
    samples_per_symbol:
        Oversampling ratio of the output waveform.
    taps:
        Pulse-shaping filter taps (typically from
        :func:`root_raised_cosine_taps`).

    Notes
    -----
    The shaping operation is upsampling by ``samples_per_symbol`` (zero
    stuffing) followed by convolution with ``taps``.  :meth:`shape` keeps the
    full convolution; :meth:`shape_trimmed` removes the filter transients so
    the output length is exactly ``len(symbols) * samples_per_symbol``.
    """

    samples_per_symbol: int
    taps: np.ndarray

    def __post_init__(self) -> None:
        sps = check_integer(self.samples_per_symbol, "samples_per_symbol", minimum=1)
        taps = check_1d_array(self.taps, "taps", min_length=1, dtype=float)
        object.__setattr__(self, "samples_per_symbol", sps)
        object.__setattr__(self, "taps", taps)

    @property
    def group_delay_samples(self) -> int:
        """Group delay of the shaping filter in output samples."""
        return (len(self.taps) - 1) // 2

    def shape(self, symbols) -> np.ndarray:
        """Shape ``symbols``; returns the full convolution (with transients)."""
        symbols = check_1d_array(symbols, "symbols", dtype=complex)
        upsampled = np.zeros(len(symbols) * self.samples_per_symbol, dtype=complex)
        upsampled[:: self.samples_per_symbol] = symbols
        return np.convolve(upsampled, self.taps.astype(complex))

    def shape_trimmed(self, symbols) -> np.ndarray:
        """Shape ``symbols`` and trim the leading/trailing filter transients."""
        full = self.shape(symbols)
        start = self.group_delay_samples
        stop = start + len(symbols) * self.samples_per_symbol
        if stop > len(full):
            raise ValidationError(
                "symbol block too short for the configured pulse span; "
                "use shape() or provide more symbols"
            )
        return full[start:stop]
