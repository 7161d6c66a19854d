"""Shared low-level utilities: units, validation, windows and RNG plumbing."""

from .rng import SeedLike, ensure_generator, spawn_generators
from .units import db_to_amplitude_ratio
from .validation import (
    check_1d_array,
    check_choice,
    check_in_range,
    check_integer,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
    check_same_length,
)
from .windows import (
    AVAILABLE_WINDOWS,
    blackman_window,
    hamming_window,
    hann_window,
    kaiser_window,
    make_window,
    rectangular_window,
)

__all__ = [
    "SeedLike",
    "ensure_generator",
    "spawn_generators",
    "db_to_amplitude_ratio",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_integer",
    "check_power_of_two",
    "check_probability",
    "check_1d_array",
    "check_same_length",
    "check_choice",
    "AVAILABLE_WINDOWS",
    "kaiser_window",
    "hann_window",
    "hamming_window",
    "blackman_window",
    "rectangular_window",
    "make_window",
]
