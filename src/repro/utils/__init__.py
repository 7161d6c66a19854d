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
    check_same_length,
)
from .windows import hann_window, kaiser_window

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
    "check_1d_array",
    "check_same_length",
    "check_choice",
    "kaiser_window",
    "hann_window",
]
