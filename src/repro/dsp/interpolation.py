"""Band-limited (windowed-sinc) interpolation of uniformly sampled signals.

The behavioural simulation evaluates continuous-time signals at arbitrary
time instants (the nonuniform sampler needs samples at ``n*T`` and
``n*T + D`` with picosecond-level timing accuracy).  Complex envelopes are
stored on a uniform grid and evaluated between grid points with windowed-sinc
(band-limited) interpolation, which is exact for signals sampled well above
their Nyquist rate and degrades gracefully otherwise.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_1d_array, check_integer, check_positive
from ..utils.windows import evaluate_taper

__all__ = ["sinc_interpolate"]


def sinc_interpolate(
    samples,
    sample_rate: float,
    times,
    start_time: float = 0.0,
    num_taps: int = 32,
) -> np.ndarray:
    """Evaluate a uniformly sampled signal at arbitrary time instants.

    Parameters
    ----------
    samples:
        Uniform samples (real or complex) taken at ``sample_rate``.
    sample_rate:
        Sampling rate of ``samples`` in Hz.
    times:
        Time instants (seconds) at which to evaluate the underlying
        continuous-time signal.  May be a scalar or an array.
    start_time:
        Time of ``samples[0]`` (seconds).
    num_taps:
        Number of neighbouring samples used per output point (one-sided width
        is ``num_taps // 2``).  More taps give higher accuracy at higher cost.
        The truncated sinc kernel is tapered by a Kaiser window (``beta = 8``)
        spanning ``num_taps / 2`` samples on either side.

    Returns
    -------
    numpy.ndarray
        Interpolated values, one per time: shape ``(len(times),)``, and
        ``(1,)`` for a scalar time.

    Notes
    -----
    Times that fall outside the sampled support are evaluated against the
    available samples only (the signal is implicitly zero outside the record);
    callers that care should provide a record with margin around the times of
    interest.
    """
    samples = check_1d_array(samples, "samples")
    sample_rate = check_positive(sample_rate, "sample_rate")
    num_taps = check_integer(num_taps, "num_taps", minimum=2)
    times = np.atleast_1d(np.asarray(times, dtype=float))

    # Fractional sample position of every requested time.
    positions = (times - float(start_time)) * sample_rate
    base = np.floor(positions).astype(np.int64)
    half = num_taps // 2

    # Index matrix: for each requested time, the num_taps nearest sample indices.
    offsets = np.arange(-half + 1, num_taps - half + 1)
    index_matrix = base[:, None] + offsets[None, :]
    valid = (index_matrix >= 0) & (index_matrix < samples.size)
    clipped = np.clip(index_matrix, 0, samples.size - 1)

    gathered = samples[clipped]
    gathered = np.where(valid, gathered, 0.0)

    # Windowed-sinc weights centred on the fractional position.
    distance = positions[:, None] - index_matrix
    kernel = np.sinc(distance)
    taper = evaluate_taper(distance / (num_taps / 2))
    weights = kernel * taper

    result = np.sum(gathered * weights, axis=1)
    if np.iscomplexobj(samples):
        return result
    return result.real
