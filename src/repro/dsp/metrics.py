"""Signal-quality metrics: NMSE, reconstruction error and EVM.

Table I of the paper reports the relative error between the true bandpass
waveform and its reconstruction from nonuniform samples; the BIST extension
additionally reports EVM against the transmitted constellation.  All metric
functions are purely functional (arrays in, floats out).
"""

from __future__ import annotations

import numpy as np

from ..errors import MeasurementError
from ..utils.validation import check_1d_array, check_same_length

__all__ = [
    "normalised_mean_squared_error",
    "relative_reconstruction_error",
    "error_vector_magnitude",
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
