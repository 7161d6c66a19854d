"""Digital filters: FIR low-pass design and the zero-phase Butterworth.

:func:`lowpass_fir` is the windowed-sinc low-pass that extracts the complex
envelope from a dense reconstruction; :func:`zero_phase_butterworth` models
the transmitter's analog filters (:mod:`repro.rf.filters`) on the envelope
without the group delay that would bias time-aligned comparisons.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The library's only SciPy import.  ``repro.dsp`` is among the first
# subpackages to load, so keep it here at module level: importing SciPy later,
# through the transmitter chain, measurably slows ``import repro``.
from scipy import signal as sp_signal

from ..errors import ValidationError
from ..utils.validation import check_integer, check_positive
from ..utils.windows import kaiser_window

__all__ = ["lowpass_fir", "zero_phase_butterworth"]


def lowpass_fir(cutoff_hz: float, sample_rate: float, num_taps: int = 129) -> np.ndarray:
    """Design a linear-phase Kaiser-windowed (``beta = 8``) sinc low-pass FIR filter.

    Parameters
    ----------
    cutoff_hz:
        -6 dB cutoff frequency in Hz.
    sample_rate:
        Sampling rate in Hz.
    num_taps:
        Odd filter length (odd is enforced so the group delay is an integer).
    """
    num_taps = check_integer(num_taps, "num_taps", minimum=3)
    if num_taps % 2 == 0:
        raise ValidationError("num_taps must be odd for a type-I linear-phase FIR filter")
    cutoff_hz = check_positive(cutoff_hz, "cutoff_hz")
    nyquist = check_positive(sample_rate, "sample_rate") / 2.0
    if cutoff_hz >= nyquist:
        raise ValidationError(
            f"cutoff_hz={cutoff_hz} Hz must be below the Nyquist frequency {nyquist} Hz"
        )
    normalised = cutoff_hz / nyquist
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    taps = normalised * np.sinc(normalised * n)
    taps *= kaiser_window(num_taps)
    return taps / np.sum(taps)


@lru_cache(maxsize=32)
def _butterworth_sos(order: int, normalised_cutoff: float) -> np.ndarray:
    """Second-order sections of a Butterworth low-pass, designed once per key.

    Every ``transmit()`` filters with the same few designs; SciPy's design
    takes ~0.8 ms a call.  Callers get a copy: ``sosfilt`` rejects a
    read-only array, and the cached one must not change.
    """
    sos = sp_signal.butter(order, normalised_cutoff, btype="low", output="sos")
    sos.flags.writeable = False
    return sos


def zero_phase_butterworth(samples, cutoff_hz: float, sample_rate: float, order: int) -> np.ndarray:
    """Zero-phase Butterworth low-pass of a complex record.

    An ``order``-th order Butterworth, in second-order sections, runs forward
    and backward over the real and the imaginary part, so the output has no
    group delay.  ``cutoff_hz`` must lie below ``sample_rate / 2``.
    """
    sos = _butterworth_sos(order, cutoff_hz / (sample_rate / 2.0)).copy()
    real = sp_signal.sosfiltfilt(sos, samples.real)
    imag = sp_signal.sosfiltfilt(sos, samples.imag)
    return real + 1j * imag
