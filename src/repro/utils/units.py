"""Unit conversion: decibels to a linear amplitude ratio."""

from __future__ import annotations

import numpy as np

__all__ = ["db_to_amplitude_ratio"]


def db_to_amplitude_ratio(value_db):
    """Convert an *amplitude* (voltage) ratio expressed in dB to linear.

    Accepts a scalar or an array: ``0 dB -> 1.0``, ``20 dB -> 10.0``.
    """
    return np.power(10.0, np.asarray(value_db, dtype=float) / 20.0)
