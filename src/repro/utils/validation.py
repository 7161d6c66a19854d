"""Shared argument-validation helpers.

Every public entry point of the library validates its inputs eagerly and
raises :class:`repro.errors.ValidationError` with an explicit message.  These
small helpers keep that validation terse and uniform across modules.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_integer",
    "check_power_of_two",
    "check_1d_array",
    "check_same_length",
    "check_choice",
]


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a finite, strictly positive number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be a finite, non-negative number, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies in the interval defined by ``low``/``high``."""
    value = float(value)
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (np.isfinite(value) and low_ok and high_ok):
        lo_bracket = "[" if inclusive_low else "("
        hi_bracket = "]" if inclusive_high else ")"
        raise ValidationError(
            f"{name} must lie in {lo_bracket}{low}, {high}{hi_bracket}, got {value!r}"
        )
    return value


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """Validate that ``value`` is an integer (optionally at least ``minimum``)."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_power_of_two(value, name: str) -> int:
    """Validate that ``value`` is a positive integer power of two."""
    value = check_integer(value, name, minimum=1)
    if value & (value - 1) != 0:
        raise ValidationError(f"{name} must be a power of two, got {value}")
    return value


def check_1d_array(values, name: str, min_length: int = 1, dtype=None) -> np.ndarray:
    """Convert ``values`` to a 1-D :class:`numpy.ndarray` and validate its length."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size < min_length:
        raise ValidationError(f"{name} must contain at least {min_length} element(s), got {array.size}")
    return array


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Validate that two sequences have the same length."""
    if len(a) != len(b):
        raise ValidationError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )


def check_choice(value, name: str, choices: Iterable):
    """Validate that ``value`` is one of ``choices``."""
    choices = tuple(choices)
    if value not in choices:
        raise ValidationError(f"{name} must be one of {choices!r}, got {value!r}")
    return value
