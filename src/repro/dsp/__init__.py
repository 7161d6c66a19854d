"""Digital signal processing substrate: spectra, filters, interpolation, metrics."""

from .filters import lowpass_fir, zero_phase_butterworth
from .interpolation import sinc_interpolate
from .metrics import (
    error_vector_magnitude,
    normalised_mean_squared_error,
    relative_reconstruction_error,
)
from .spectrum import (
    SpectrumEstimate,
    adjacent_channel_power_ratio,
    band_power,
    occupied_bandwidth,
    periodogram,
    welch_psd,
)

__all__ = [
    "lowpass_fir",
    "zero_phase_butterworth",
    "sinc_interpolate",
    "error_vector_magnitude",
    "normalised_mean_squared_error",
    "relative_reconstruction_error",
    "SpectrumEstimate",
    "adjacent_channel_power_ratio",
    "band_power",
    "occupied_bandwidth",
    "periodogram",
    "welch_psd",
]
