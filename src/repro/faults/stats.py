"""Binomial confidence intervals for the adaptive campaign planner.

Detection probabilities are estimated from small Bernoulli samples (a handful
of BIST repeats per probe severity), so the planner's early-stopping rule
needs honest interval estimates rather than raw fractions:
:func:`wilson_interval` is the Wilson score interval at a fixed 95 %
confidence, with good coverage at small ``n`` and without the overshoot of
the normal approximation.  Its quantile, :func:`normal_quantile`, is a
deterministic pure-Python implementation (no SciPy dependency).
"""

from __future__ import annotations

import math

from ..errors import ValidationError
from ..utils.validation import check_in_range, check_integer

__all__ = ["normal_quantile", "wilson_interval"]

#: Confidence level of every interval (the planner's credible brackets too).
CONFIDENCE = 0.95


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Absolute error below 1.2e-9 over the open interval, refined here with one
    Halley step against :func:`math.erfc` to full double precision.
    """
    p = check_in_range(p, "p", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    # Acklam's coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    # One Halley refinement against the exact CDF (erfc-based).
    error = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = error * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def _check_counts(successes: int, trials: int) -> tuple:
    trials = check_integer(trials, "trials", minimum=1)
    successes = check_integer(successes, "successes", minimum=0)
    if successes > trials:
        raise ValidationError(
            f"successes ({successes}) cannot exceed trials ({trials})"
        )
    return successes, trials


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson score interval for a binomial proportion at :data:`CONFIDENCE`.

    Returns ``(low, high)`` clamped to ``[0, 1]``.  The adaptive planner's
    interval: near-nominal coverage at the tiny sample sizes a probe runs
    before its early-stopping rule can fire.
    """
    successes, trials = _check_counts(successes, trials)
    z = normal_quantile(0.5 + CONFIDENCE / 2.0)
    p_hat = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denominator
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denominator
    )
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return (low, high)
