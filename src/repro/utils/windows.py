"""Window functions used by the reconstruction filters and PSD estimators.

The paper windows the 61-tap Kohlenberg reconstruction kernel with a Kaiser
window; :func:`evaluate_taper` is that window at ``beta = 8``, evaluated at
fractional support offsets, and also tapers the windowed-sinc interpolator.
The spectrum estimators and the streaming monitor taper with
:func:`hann_window`; the envelope FIR with :func:`kaiser_window`, at the
same ``beta = 8``.  The window ablation sweeps other reconstruction tapers
through :func:`~repro.sampling.reconstruction.reference_evaluate`, the
oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .validation import check_integer

__all__ = ["kaiser_window", "hann_window", "kaiser_normaliser", "evaluate_taper"]

#: Shape parameter of every Kaiser window here (the paper's ``beta``).
KAISER_BETA = 8.0


def hann_window(num_taps: int) -> np.ndarray:
    """Symmetric Hann window of ``num_taps`` samples."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (num_taps - 1))


def kaiser_window(num_taps: int) -> np.ndarray:
    """Symmetric Kaiser window of ``num_taps`` samples at :data:`KAISER_BETA`."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    alpha = (num_taps - 1) / 2.0
    argument = KAISER_BETA * np.sqrt(np.clip(1.0 - ((n - alpha) / alpha) ** 2, 0.0, None))
    return np.i0(argument) / kaiser_normaliser(KAISER_BETA)


@lru_cache(maxsize=64)
def kaiser_normaliser(beta: float) -> float:
    """The constant Kaiser denominator ``I0(beta)``, computed once per ``beta``.

    Every Kaiser taper evaluation divides by ``I0(beta)``; the modified Bessel
    series is by far the most expensive part of the taper, so the normaliser
    is cached instead of re-evaluated on every reconstruction call.
    """
    return float(np.i0(beta))


#: Coefficients of :func:`evaluate_taper` in ``y = 1 - x^2``, lowest first:
#: ``I0(beta sqrt(y)) = sum_k (beta^2 y / 4)^k / (k!)^2``, here ``(16 y)^k /
#: (k!)^2`` at the paper's ``beta = 8``, over ``I0(8)``.  Each numerator is an
#: exact integer ratio rounded once; at ``y = 1`` the first omitted term is
#: ~6e-19 of the sum.
_TAPER_SERIES = tuple(
    16**k / math.factorial(k) ** 2 / kaiser_normaliser(KAISER_BETA) for k in range(22)
)


def evaluate_taper(fraction) -> np.ndarray:
    """The Kaiser taper (``beta = 8``) at normalised support offsets.

    ``fraction`` holds offsets from the evaluation instant as a fraction of
    the truncated kernel half-span; the magnitude is clipped into ``[0, 1]``
    so that out-of-support offsets taper to the window's edge value.

    ``I0(8 sqrt(y)) / I0(8)`` with ``y = 1 - x^2`` is evaluated as its power
    series in ``y`` (:data:`_TAPER_SERIES`, Horner form): no square root and
    no ``np.i0``.  It is 1.0 at ``x = 0``, ``1 / I0(8)`` at ``|x| >= 1`` and
    within ~1.3e-15 relative of the ``np.i0`` expression in between.
    """
    x = np.clip(np.abs(np.asarray(fraction, dtype=float)), 0.0, 1.0)
    y = 1.0 - x**2
    taper = np.full_like(y, _TAPER_SERIES[-1])
    for coefficient in _TAPER_SERIES[-2::-1]:
        taper *= y
        taper += coefficient
    return taper
