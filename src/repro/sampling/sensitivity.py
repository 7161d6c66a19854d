"""Sensitivity of the nonuniform reconstruction to delay (time-skew) error.

Implements the analysis of Section II-B.2 of the paper: if the true
inter-channel delay is ``D`` but reconstruction uses ``D_hat = D + dD``, the
relative spectral error is approximately

    ``|F_hat(nu) - F(nu)| / |F(nu)|  ~=  pi * B * (k + 1) * dD``       (Eq. 4)

so the acceptable delay error shrinks both with the signal bandwidth and,
through ``k ~= 2 f_l / B``, with the carrier position.  The paper's example
(Eq. 5): recovering a band at ``fc = 1 GHz`` with ``B = 80 MHz`` to 1 %
requires ``dD <= ~2 ps``.  These closed forms are validated against the
actual reconstructor by ``benchmarks/bench_eq4_skew_sensitivity.py``.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_positive
from .bandpass import BandpassBand
from .nonuniform import band_order

__all__ = [
    "relative_error_for_delay_error",
    "max_delay_error_for_relative_error",
    "paper_example_delay_requirement",
]


def relative_error_for_delay_error(band: BandpassBand, delay_error: float) -> float:
    """Predicted relative reconstruction error for a delay error (Eq. 4).

    Parameters
    ----------
    band:
        Bandpass support being reconstructed.
    delay_error:
        Absolute delay estimation error ``|dD|`` in seconds.

    Returns
    -------
    float
        Approximate relative spectral error (dimensionless fraction).
    """
    delay_error = abs(float(delay_error))
    k, _ = band_order(band)
    return float(np.pi * band.bandwidth * (k + 1) * delay_error)


def max_delay_error_for_relative_error(band: BandpassBand, relative_error: float) -> float:
    """Largest delay error tolerated for a target relative error (inverse of Eq. 4)."""
    relative_error = check_positive(relative_error, "relative_error")
    k, _ = band_order(band)
    return float(relative_error / (np.pi * band.bandwidth * (k + 1)))


def paper_example_delay_requirement() -> float:
    """The paper's worked example (Eq. 5).

    A band centred at ``fc = 1 GHz`` with ``B = 80 MHz`` reconstructed to a
    1 % relative error tolerates a delay error of roughly 2 ps.  Returns the
    tolerance in seconds as computed by the library's own formula, so tests
    can assert it lands at the published order of magnitude.
    """
    band = BandpassBand.from_centre(1.0e9, 80.0e6)
    return max_delay_error_for_relative_error(band, 0.01)
