"""Window functions used by the reconstruction filters and PSD estimators.

The paper windows the 61-tap Kohlenberg reconstruction kernel with a Kaiser
window; :func:`evaluate_taper` is that window at ``beta = 8``, evaluated at
fractional support offsets, and also tapers the windowed-sinc interpolator.
The named windows behind :func:`make_window` serve the spectrum estimators,
the streaming monitor and FIR design.  The window ablation sweeps other
reconstruction tapers through
:func:`~repro.sampling.reconstruction.reference_evaluate`, the oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ValidationError
from .validation import check_integer, check_non_negative

__all__ = [
    "kaiser_window",
    "hann_window",
    "hamming_window",
    "blackman_window",
    "rectangular_window",
    "make_window",
    "kaiser_normaliser",
    "evaluate_taper",
    "AVAILABLE_WINDOWS",
]

#: Names accepted by :func:`make_window`.
AVAILABLE_WINDOWS = ("kaiser", "hann", "hamming", "blackman", "rectangular")


def rectangular_window(num_taps: int) -> np.ndarray:
    """Rectangular (boxcar) window of ``num_taps`` samples."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    return np.ones(num_taps, dtype=float)


def hann_window(num_taps: int) -> np.ndarray:
    """Symmetric Hann window of ``num_taps`` samples."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (num_taps - 1))


def hamming_window(num_taps: int) -> np.ndarray:
    """Symmetric Hamming window of ``num_taps`` samples."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (num_taps - 1))


def blackman_window(num_taps: int) -> np.ndarray:
    """Symmetric Blackman window of ``num_taps`` samples."""
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    x = 2.0 * np.pi * n / (num_taps - 1)
    return 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)


def kaiser_window(num_taps: int, beta: float = 8.0) -> np.ndarray:
    """Symmetric Kaiser window of ``num_taps`` samples with shape ``beta``.

    ``beta = 0`` degenerates to a rectangular window; larger values trade
    main-lobe width for side-lobe attenuation.
    """
    num_taps = check_integer(num_taps, "num_taps", minimum=1)
    beta = check_non_negative(beta, "beta")
    if num_taps == 1:
        return np.ones(1)
    n = np.arange(num_taps)
    alpha = (num_taps - 1) / 2.0
    argument = beta * np.sqrt(np.clip(1.0 - ((n - alpha) / alpha) ** 2, 0.0, None))
    return np.i0(argument) / kaiser_normaliser(float(beta))


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
    16**k / math.factorial(k) ** 2 / kaiser_normaliser(8.0) for k in range(22)
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


def make_window(name: str, num_taps: int, beta: float = 8.0) -> np.ndarray:
    """Build a window by name.

    Parameters
    ----------
    name:
        One of :data:`AVAILABLE_WINDOWS`.
    num_taps:
        Window length in samples.
    beta:
        Kaiser shape parameter; ignored for the other windows.
    """
    name = str(name).lower()
    if name == "kaiser":
        return kaiser_window(num_taps, beta=beta)
    if name == "hann":
        return hann_window(num_taps)
    if name == "hamming":
        return hamming_window(num_taps)
    if name == "blackman":
        return blackman_window(num_taps)
    if name in ("rectangular", "boxcar", "rect"):
        return rectangular_window(num_taps)
    raise ValidationError(f"unknown window {name!r}; expected one of {AVAILABLE_WINDOWS}")
