"""Periodically Nonuniform Bandpass Sampling of second order (PNBS).

Implements the Kohlenberg/Lin-Vaidyanathan/Vaughan theory the paper builds
on (Section II-B): a real bandpass signal occupying ``[f_l, f_l + B]`` can be
reconstructed exactly from two interleaved uniform sample sequences
``f(nT)`` and ``f(nT + D)`` with ``T = 1/B``, for (almost) any inter-sequence
delay ``D``, using the interpolation kernel

    ``s(t) = s0(t) + s1(t)``                                        (Eq. 2a)

    ``s0(t) = [cos(2*pi*(k*B - f_l)*t - k*pi*B*D)
               - cos(2*pi*f_l*t - k*pi*B*D)]
              / (2*pi*B*t * sin(k*pi*B*D))``                        (Eq. 2b)

    ``s1(t) = [cos(2*pi*(f_l + B)*t - k1*pi*B*D)
               - cos(2*pi*(k*B - f_l)*t - k1*pi*B*D)]
              / (2*pi*B*t * sin(k1*pi*B*D))``                       (Eq. 2c)

with ``k = ceil(2*f_l / B)`` and ``k1 = k + 1`` (the paper's ``k^+``).  The
reconstruction is

    ``f(t) = sum_n [ f(nT) * s(t - nT) + f(nT + D) * s(nT + D - t) ]``  (Eq. 1)

The kernel blows up when ``sin(k*pi*B*D)`` or ``sin(k1*pi*B*D)`` approaches
zero, i.e. when ``D`` is a multiple of ``T/k`` or ``T/(k+1)`` (Eq. 3); those
delays are rejected by :func:`check_delay`.  The magnitude-optimal delay is
``D = 1/(4*fc)`` (Vaughan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DelayConstraintError, ValidationError
from ..utils.validation import check_positive
from .bandpass import BandpassBand

__all__ = [
    "band_order",
    "integer_band_positioning",
    "forbidden_delays",
    "check_delay",
    "optimal_delay",
    "delay_upper_bound",
    "KohlenbergKernel",
]

#: Relative closeness to a forbidden delay that :func:`check_delay` rejects.
DELAY_TOLERANCE = 1e-3


def band_order(band: BandpassBand) -> tuple[int, int]:
    """The integers ``(k, k+)`` of Eq. (2d): ``k = ceil(2 f_l / B)``, ``k+ = k + 1``."""
    ratio = 2.0 * band.f_low / band.bandwidth
    k = int(np.ceil(ratio - 1e-12))
    return k, k + 1


def integer_band_positioning(band: BandpassBand) -> bool:
    """Whether ``2 f_l / B`` is an integer (the ``k = 2 f_l / B`` case of the paper).

    With integer positioning the ``s0`` term of the kernel vanishes
    identically and the constraint on ``D`` from ``k`` no longer applies.
    """
    ratio = 2.0 * band.f_low / band.bandwidth
    return bool(np.isclose(ratio, np.round(ratio), rtol=0.0, atol=1e-9))


@lru_cache(maxsize=256)
def _forbidden_spacings(band: BandpassBand) -> tuple[tuple[int, float], ...]:
    """``(order, T / order)`` of each forbidden-delay family of Eq. (3).

    The ``T/k`` family applies unless the band is integer-positioned, the
    ``T/(k+1)`` family always.  Cached per band (a frozen, hashable value):
    the skew search checks every candidate delay against the same two bands.
    """
    k, k_plus = band_order(band)
    period = 1.0 / band.bandwidth
    orders = (k_plus,) if integer_band_positioning(band) else (k, k_plus)
    return tuple((order, period / order) for order in orders)


def forbidden_delays(band: BandpassBand, max_delay: float) -> np.ndarray:
    """All delays in ``(0, max_delay]`` forbidden by Eq. (3).

    These are the multiples of ``T/k`` and ``T/(k+1)`` at which the
    reconstruction kernel denominators vanish.  If the band is
    integer-positioned the ``T/k`` family is omitted (condition (3a) is not
    applicable because ``s0`` is identically zero).
    """
    max_delay = check_positive(max_delay, "max_delay")
    delays: list[float] = []
    for _, step in _forbidden_spacings(band):
        delays.extend(np.arange(step, max_delay + step / 2.0, step))
    return np.unique(np.round(np.asarray(delays, dtype=float), 18))


def delay_upper_bound(band: BandpassBand) -> float:
    """The first forbidden delay ``m = min(T/k, T/(k+1)) = 1/((k+1) B)``.

    Candidate delays handed to the time-skew estimator must stay inside
    ``(0, m)`` for the cost function to have a unique minimum (Section IV-A).
    """
    _, k_plus = band_order(band)
    return 1.0 / (k_plus * band.bandwidth)


def optimal_delay(band: BandpassBand) -> float:
    """The kernel-magnitude-optimal delay ``D = 1/(4 * fc)`` (Vaughan)."""
    return 1.0 / (4.0 * band.centre)


def check_delay(band: BandpassBand, delay: float) -> float:
    """Validate a candidate inter-channel delay against Eq. (3).

    A delay within :data:`DELAY_TOLERANCE` of a forbidden one, as a fraction
    of the local forbidden-delay spacing, is rejected too: the kernel
    coefficients grow without bound as the distance shrinks, so values that
    are merely *near* a forbidden delay are also unusable in finite
    precision.

    Parameters
    ----------
    band:
        The bandpass support to be reconstructed.
    delay:
        Candidate delay ``D`` in seconds.

    Returns
    -------
    float
        The validated delay.

    Raises
    ------
    DelayConstraintError
        If the delay is non-positive or too close to a forbidden value.
    """
    delay = float(delay)
    if not np.isfinite(delay) or delay <= 0.0:
        raise DelayConstraintError(f"delay must be strictly positive, got {delay!r}")
    for order, spacing in _forbidden_spacings(band):
        distance = abs(delay / spacing - round(delay / spacing))
        if distance < DELAY_TOLERANCE:
            raise DelayConstraintError(
                f"delay {delay} s is within {DELAY_TOLERANCE:.1%} of a forbidden multiple of "
                f"T/{order} = {spacing} s (Eq. 3); the reconstruction kernel would be unstable"
            )
    return delay


@dataclass(frozen=True)
class KohlenbergKernel:
    """The second-order nonuniform reconstruction kernel ``s(t)`` of Eq. (2).

    Instances are immutable and precompute every constant that depends only
    on the band and the delay, so that evaluating the kernel at many time
    offsets (the inner loop of reconstruction and of the LMS cost function)
    stays cheap.

    Parameters
    ----------
    band:
        Bandpass support ``[f_l, f_l + B]`` of the signal to reconstruct.
    delay:
        Inter-sequence delay ``D`` (seconds).  Must satisfy Eq. (3) within
        :data:`DELAY_TOLERANCE`.
    """

    band: BandpassBand
    delay: float

    def __post_init__(self) -> None:
        if not isinstance(self.band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        delay = check_delay(self.band, self.delay)
        object.__setattr__(self, "delay", delay)

    # ------------------------------------------------------------------ #
    # Derived constants
    # ------------------------------------------------------------------ #
    @property
    def bandwidth(self) -> float:
        """Signal bandwidth ``B`` (also the per-sequence sampling rate)."""
        return self.band.bandwidth

    @property
    def sample_period(self) -> float:
        """Per-sequence sampling period ``T = 1/B``."""
        return 1.0 / self.band.bandwidth

    @property
    def orders(self) -> tuple[int, int]:
        """The integers ``(k, k+)``."""
        return band_order(self.band)

    # ------------------------------------------------------------------ #
    # Kernel evaluation
    # ------------------------------------------------------------------ #
    def s0(self, t) -> np.ndarray:
        """First kernel term (Eq. 2b); identically zero for integer positioning.

        Evaluated in the cancellation-free product form obtained from the
        identity ``cos(a) - cos(b) = -2 sin((a+b)/2) sin((a-b)/2)``:

        ``s0(t) = -sin(pi*(f_m + f_l)*t - phi) * (k - 2 f_l/B)
                  * sinc((f_m - f_l)*t) / sin(phi)``

        with ``f_m = k*B - f_l`` and ``phi = k*pi*B*D``.  The removable
        singularity at ``t = 0`` disappears (``numpy.sinc`` handles it), and
        ``s0(0) = k - 2 f_l / B`` exactly as required.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k, _ = self.orders
        f_low = self.band.f_low
        bandwidth = self.bandwidth
        if integer_band_positioning(self.band):
            return np.zeros_like(t)
        phase = k * np.pi * bandwidth * self.delay
        f_mirror = k * bandwidth - f_low
        scale = k - 2.0 * f_low / bandwidth
        oscillation = np.sin(np.pi * (f_mirror + f_low) * t - phase)
        envelope = np.sinc((f_mirror - f_low) * t)
        return -oscillation * envelope * scale / np.sin(phase)

    def s1(self, t) -> np.ndarray:
        """Second kernel term (Eq. 2c), in the same cancellation-free form.

        ``s1(t) = -sin(pi*(f_h + f_m)*t - phi1) * (2 f_l/B + 1 - k)
                  * sinc((f_h - f_m)*t) / sin(phi1)``

        with ``f_h = f_l + B``, ``f_m = k*B - f_l`` and ``phi1 = (k+1)*pi*B*D``,
        giving ``s1(0) = 2 f_l/B + 1 - k``.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k, k_plus = self.orders
        f_low = self.band.f_low
        bandwidth = self.bandwidth
        phase = k_plus * np.pi * bandwidth * self.delay
        f_mirror = k * bandwidth - f_low
        f_high = f_low + bandwidth
        scale = 2.0 * f_low / bandwidth + 1.0 - k
        oscillation = np.sin(np.pi * (f_high + f_mirror) * t - phase)
        envelope = np.sinc((f_high - f_mirror) * t)
        return -oscillation * envelope * scale / np.sin(phase)

    def s(self, t) -> np.ndarray:
        """The full kernel ``s(t) = s0(t) + s1(t)`` (Eq. 2a); ``s(0) == 1``."""
        return self.s0(t) + self.s1(t)

    def __call__(self, t) -> np.ndarray:
        return self.s(t)
