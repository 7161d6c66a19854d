"""Signal-quality metrics: NMSE, reconstruction error, EVM and SINAD.

Table I of the paper reports the relative error between the true bandpass
waveform and its reconstruction from nonuniform samples; the BIST extension
additionally reports EVM against the transmitted constellation.  All metric
functions are purely functional (arrays in, floats out).
"""

from __future__ import annotations

import numpy as np

from ..errors import MeasurementError
from ..utils.validation import check_1d_array, check_positive, check_same_length

__all__ = [
    "normalised_mean_squared_error",
    "relative_reconstruction_error",
    "error_vector_magnitude",
    "sinad_db",
]


def normalised_mean_squared_error(reference, estimate) -> float:
    """MSE normalised by the reference mean square (dimensionless)."""
    reference = check_1d_array(reference, "reference")
    estimate = check_1d_array(estimate, "estimate")
    check_same_length("reference", reference, "estimate", estimate)
    denominator = float(np.mean(np.abs(reference) ** 2))
    if denominator <= 0.0:
        raise MeasurementError("reference signal has zero power; NMSE undefined")
    return float(np.mean(np.abs(estimate - reference) ** 2) / denominator)


def relative_reconstruction_error(reference, estimate) -> float:
    """RMS relative error between a reconstruction and the true waveform.

    This is the fourth-column metric of Table I of the paper,
    ``Delta_epsilon(f_D_hat(t))``: the root of the energy of the error
    normalised by the energy of the true signal, expressed as a fraction
    (multiply by 100 for percent).
    """
    return float(np.sqrt(normalised_mean_squared_error(reference, estimate)))


def error_vector_magnitude(reference_symbols, received_symbols, as_percent: bool = True) -> float:
    """Error vector magnitude between ideal and received constellation points.

    EVM is computed RMS-over-RMS: ``sqrt(mean|err|^2 / mean|ref|^2)``.
    """
    reference_symbols = check_1d_array(reference_symbols, "reference_symbols", dtype=complex)
    received_symbols = check_1d_array(received_symbols, "received_symbols", dtype=complex)
    check_same_length("reference_symbols", reference_symbols, "received_symbols", received_symbols)
    reference_power = float(np.mean(np.abs(reference_symbols) ** 2))
    if reference_power <= 0.0:
        raise MeasurementError("reference symbols have zero power; EVM undefined")
    error_power = float(np.mean(np.abs(received_symbols - reference_symbols) ** 2))
    evm = float(np.sqrt(error_power / reference_power))
    return evm * 100.0 if as_percent else evm


def _coherent_tone_fit(samples: np.ndarray, sample_rate: float, frequency_hz: float) -> np.ndarray:
    """Least-squares fit of ``A*cos + B*sin + C`` at a known frequency."""
    n = np.arange(samples.size)
    t = n / sample_rate
    design = np.column_stack(
        [
            np.cos(2.0 * np.pi * frequency_hz * t),
            np.sin(2.0 * np.pi * frequency_hz * t),
            np.ones_like(t),
        ]
    )
    coefficients, *_ = np.linalg.lstsq(design, samples, rcond=None)
    return design @ coefficients


def sinad_db(samples, sample_rate: float, tone_frequency_hz: float) -> float:
    """Signal-to-noise-and-distortion ratio of a sampled sine wave, in dB.

    The tone is estimated by least squares at the known frequency; everything
    else (noise, harmonics, spurs) counts as noise-and-distortion.
    """
    samples = check_1d_array(samples, "samples", min_length=16, dtype=float)
    sample_rate = check_positive(sample_rate, "sample_rate")
    tone_frequency_hz = check_positive(tone_frequency_hz, "tone_frequency_hz")
    fitted = _coherent_tone_fit(samples, sample_rate, tone_frequency_hz)
    residual = samples - fitted
    tone_power = float(np.mean((fitted - np.mean(fitted)) ** 2))
    residual_power = float(np.mean(residual**2))
    if residual_power <= 0.0:
        return float("inf")
    if tone_power <= 0.0:
        raise MeasurementError("no tone found at the requested frequency")
    return float(10.0 * np.log10(tone_power / residual_power))
