"""Power spectral density estimation and band-power measurements.

Spectral-mask compliance is the paper's motivating use case for the BIST
architecture: once the transmitter output has been reconstructed from the
nonuniform samples, the DSP computes its spectrum and checks it against the
emission mask of the active standard.  This module provides the PSD
estimators (periodogram and Welch), band-power integration, occupied
bandwidth and adjacent-channel power ratio used by :mod:`repro.bist`.
"""

from __future__ import annotations

import base64
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import MeasurementError, MeasurementWarning, ValidationError
from ..utils.validation import check_1d_array, check_integer, check_positive
from ..utils.windows import hann_window

__all__ = [
    "SpectrumEstimate",
    "periodogram",
    "periodogram_rows",
    "welch_psd",
    "band_power",
    "occupied_bandwidth",
    "adjacent_channel_power_ratio",
]

#: Share of the total power the occupied bandwidth contains.
OCCUPIED_POWER_FRACTION = 0.99


@dataclass(frozen=True)
class SpectrumEstimate:
    """A one-sided (real input) or two-sided (complex input) PSD estimate.

    Attributes
    ----------
    frequencies_hz:
        Frequency bins (Hz).  Finite and strictly increasing.
    psd:
        Power spectral density per bin, in linear units (power per Hz).
    resolution_hz:
        Bin spacing.
    two_sided:
        Whether the estimate covers negative frequencies (complex input).
    """

    frequencies_hz: np.ndarray
    psd: np.ndarray
    resolution_hz: float
    two_sided: bool

    def __post_init__(self) -> None:
        freqs = check_1d_array(self.frequencies_hz, "frequencies_hz", dtype=float)
        psd = check_1d_array(self.psd, "psd", dtype=float)
        if freqs.size != psd.size:
            raise ValidationError("frequencies_hz and psd must have the same length")
        # Every comparison with NaN is False, so a NaN bin fails the step
        # test; strictly increasing bins between finite ends are all finite.
        # Neighbours are compared, not subtracted: a difference of two finite
        # bins can overflow.
        ends_finite = math.isfinite(freqs[0]) and math.isfinite(freqs[-1])
        if not (ends_finite and np.all(freqs[1:] > freqs[:-1])):
            raise ValidationError("frequencies_hz must be finite and strictly increasing")
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "psd", psd)

    def normalised_db(self) -> np.ndarray:
        """PSD in dB relative to the peak bin (peak at 0 dB)."""
        peak = float(np.max(self.psd))
        if peak <= 0.0:
            raise MeasurementError("cannot normalise an all-zero spectrum")
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.psd / peak)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`).

        ``frequencies_hz`` and ``psd`` are base64 strings of the arrays'
        little-endian float64 bytes, so every bit survives (``-0.0``,
        subnormals and infinities included) and a paper-sized spectrum
        archives without formatting one float per bin.
        """
        return {
            "frequencies_hz": _encode_float64(self.frequencies_hz),
            "psd": _encode_float64(self.psd),
            "resolution_hz": float(self.resolution_hz),
            "two_sided": bool(self.two_sided),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectrumEstimate":
        """Rebuild an estimate serialized with :meth:`to_dict`.

        Each array may be the base64 string :meth:`to_dict` writes or a
        list of numbers, the layout of archives written by earlier library
        versions (golden baselines, store shards, saved baselines).
        """
        return cls(
            frequencies_hz=_decode_float64(data["frequencies_hz"], "frequencies_hz"),
            psd=_decode_float64(data["psd"], "psd"),
            resolution_hz=float(data["resolution_hz"]),
            two_sided=bool(data["two_sided"]),
        )


def _encode_float64(values: np.ndarray) -> str:
    """Base64 of an array's little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _decode_float64(encoded, name: str) -> np.ndarray:
    """Writable float64 array from :func:`_encode_float64` output or a list."""
    if not isinstance(encoded, str):
        return np.asarray(encoded, dtype=float)
    try:
        raw = base64.b64decode(encoded, validate=True)
    except ValueError as exc:
        raise ValidationError(f"{name} is not valid base64 ({exc})") from None
    if len(raw) % 8:
        raise ValidationError(
            f"{name} holds {len(raw)} bytes, not a whole number of float64 values"
        )
    return np.frombuffer(raw, dtype="<f8").astype(float)


def periodogram_rows(
    segments,
    sample_rate: float,
    taper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Windowed periodogram of every row of a ``(k, L)`` stack of segments.

    One length-``L`` ``taper`` (the estimators use a Hann window), one
    FFT call along the last axis and one frequency axis serve all ``k``
    rows.  Every PSD estimator here runs through this function, so a row
    is bit for bit the :func:`periodogram` of that segment alone (NumPy's
    FFT transforms each row of a stack exactly as it does a lone record).
    A complex stack's PSD is moved into ``fftshift`` order by two slice
    copies, and its axis is built in that order: the same integers times
    the same bin spacing as ``fftshift(fftfreq(L, 1 / sample_rate))``.

    Returns
    -------
    tuple
        ``(frequencies_hz, psd_rows, two_sided)``; ``psd_rows`` has one
        C-contiguous row per segment, over the two-sided (complex input) or
        one-sided (real input) frequency axis.
    """
    segments = np.asarray(segments)
    if segments.ndim != 2:
        raise ValidationError(f"segments must be two-dimensional, got shape {segments.shape}")
    sample_rate = check_positive(sample_rate, "sample_rate")
    n = segments.shape[1]
    scale = sample_rate * np.sum(taper**2)
    windowed = segments * taper

    if np.iscomplexobj(segments):
        unshifted = np.abs(np.fft.fft(windowed, axis=-1)) ** 2 / scale
        # fftshift: the n // 2 negative-frequency bins go first.
        positive = n - n // 2
        psd = np.empty_like(unshifted)
        psd[:, : n // 2] = unshifted[:, positive:]
        psd[:, n // 2 :] = unshifted[:, :positive]
        frequencies = np.arange(-(n // 2), positive) * (1.0 / (n * (1.0 / sample_rate)))
        return frequencies, psd, True

    spectrum = np.fft.rfft(windowed, axis=-1)
    frequencies = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    psd = np.abs(spectrum) ** 2 / scale
    # One-sided estimate: double all bins except DC and (if present) Nyquist.
    psd *= 2.0
    psd[:, 0] /= 2.0
    if n % 2 == 0:
        psd[:, -1] /= 2.0
    return frequencies, psd, False


def periodogram(samples, sample_rate: float) -> SpectrumEstimate:
    """Single-record Hann-windowed periodogram PSD estimate.

    The window is compensated for its power loss so that the integrated
    PSD, ``sum(psd) * resolution_hz``, matches the time-domain mean square
    of the record (Parseval-consistent).
    """
    samples = check_1d_array(samples, "samples", min_length=8)
    sample_rate = check_positive(sample_rate, "sample_rate")
    frequencies, psd, two_sided = periodogram_rows(
        samples[None, :], sample_rate, hann_window(samples.size)
    )
    return SpectrumEstimate(frequencies, psd[0], sample_rate / samples.size, two_sided=two_sided)


def welch_psd(samples, sample_rate: float, segment_length: int = 1024) -> SpectrumEstimate:
    """Welch-averaged PSD estimate (reduced variance vs a single periodogram).

    Notes
    -----
    Segments are Hann-tapered and overlap by 50 %: they start every
    ``round(segment_length / 2)`` samples.  Every complete segment is
    periodogrammed at once by :func:`periodogram_rows` over a strided view of
    the record, and one ``np.add.reduce`` over axis 0 sums the rows; over a
    C-contiguous stack it adds them in segment order, so the estimate is bit
    for bit the average of one-segment :func:`periodogram` calls.

    When ``segment_length`` exceeds the record length it is clamped to the
    record length, degrading the estimate to a single periodogram with *no*
    variance reduction; a :class:`~repro.errors.MeasurementWarning` is
    emitted so callers (and long-running accumulators) notice the
    degradation instead of silently averaging one segment.  Up to
    ``segment_length - 1`` tail samples that do not fill a final segment are
    excluded from the estimate; :class:`repro.monitor.StreamingAccumulator`
    carries exactly those samples over between blocks and reports them via
    ``pending_samples``.
    """
    samples = check_1d_array(samples, "samples", min_length=8)
    sample_rate = check_positive(sample_rate, "sample_rate")
    segment_length = check_integer(segment_length, "segment_length", minimum=8)
    if segment_length > samples.size:
        warnings.warn(
            f"segment_length ({segment_length}) exceeds the record length "
            f"({samples.size}); clamping to the record length degrades the "
            "Welch estimate to a single periodogram with no variance reduction",
            MeasurementWarning,
            stacklevel=2,
        )
        segment_length = samples.size
    step = int(round(segment_length * 0.5))

    segments = np.lib.stride_tricks.sliding_window_view(samples, segment_length)[::step]
    frequencies, rows, two_sided = periodogram_rows(
        segments, sample_rate, hann_window(segment_length)
    )
    psd = np.add.reduce(rows, axis=0) / len(rows)
    return SpectrumEstimate(frequencies, psd, sample_rate / segment_length, two_sided=two_sided)


def _band_bins(frequencies: np.ndarray, low_hz: float, high_hz: float) -> slice:
    """The bins with ``low_hz <= f <= high_hz``, as a slice of the axis.

    The axis is strictly increasing (:class:`SpectrumEstimate` checks it),
    so those bins are one run, found by two binary searches.  No comparison
    with NaN holds, so a NaN bound selects no bin.
    """
    if math.isnan(low_hz) or math.isnan(high_hz):
        return slice(0, 0)
    return slice(
        int(np.searchsorted(frequencies, low_hz, side="left")),
        int(np.searchsorted(frequencies, high_hz, side="right")),
    )


def band_power(estimate: SpectrumEstimate, low_hz: float, high_hz: float) -> float:
    """Integrate PSD power over ``[low_hz, high_hz]`` (rectangle rule).

    Bands at least one bin wide integrate the bins whose centres fall inside
    the band (each contributing ``psd * resolution_hz``).  Bands *narrower*
    than the bin spacing can fall entirely between bin centres; instead of
    silently under-reporting the power as ``0.0`` (the pre-fix behaviour,
    which produced spuriously perfect ACPR for narrow adjacent channels),
    each bin is treated as a rectangle of width ``resolution_hz`` centred on
    its frequency and the band receives the fractional coverage of the (at
    most two) rectangles it overlaps.  Only a band lying wholly outside the
    estimate's covered span integrates to ``0.0``.
    """
    if high_hz <= low_hz:
        raise ValidationError(f"high_hz ({high_hz}) must exceed low_hz ({low_hz})")
    frequencies = estimate.frequencies_hz
    inside = _band_bins(frequencies, low_hz, high_hz)
    if inside.stop > inside.start:
        return float(np.sum(estimate.psd[inside]) * estimate.resolution_hz)
    # Sub-resolution band: no bin centre inside [low_hz, high_hz].  Snap to
    # the overlapped bin rectangle(s) and integrate the fractional coverage.
    half = estimate.resolution_hz / 2.0
    overlapping = (frequencies + half > low_hz) & (frequencies - half < high_hz)
    if not np.any(overlapping):
        return 0.0
    centres = frequencies[overlapping]
    coverage = np.minimum(high_hz, centres + half) - np.maximum(low_hz, centres - half)
    return float(np.sum(estimate.psd[overlapping] * np.maximum(coverage, 0.0)))


def occupied_bandwidth(estimate: SpectrumEstimate) -> tuple[float, float, float]:
    """Occupied bandwidth containing :data:`OCCUPIED_POWER_FRACTION` of the power.

    Returns
    -------
    tuple
        ``(bandwidth_hz, low_edge_hz, high_edge_hz)`` of the smallest
        symmetric-in-power interval (equal residual power excluded from each
        side) that contains the requested fraction of the total power.
    """
    psd = estimate.psd
    total = float(np.sum(psd))
    if total <= 0.0:
        raise MeasurementError("cannot compute occupied bandwidth of an all-zero spectrum")
    cumulative = np.cumsum(psd) / total
    tail = (1.0 - OCCUPIED_POWER_FRACTION) / 2.0
    low_index = int(np.searchsorted(cumulative, tail))
    high_index = int(np.searchsorted(cumulative, 1.0 - tail))
    high_index = min(high_index, psd.size - 1)
    low_edge = float(estimate.frequencies_hz[low_index])
    high_edge = float(estimate.frequencies_hz[high_index])
    return high_edge - low_edge, low_edge, high_edge


def adjacent_channel_power_ratio(
    estimate: SpectrumEstimate,
    channel_centre_hz: float,
    channel_bandwidth_hz: float,
    offset_hz: float | None = None,
) -> dict[str, float]:
    """Adjacent-channel power ratio (ACPR) in dB for both adjacent channels.

    Parameters
    ----------
    estimate:
        PSD estimate of the transmitter output (two-sided or one-sided).
    channel_centre_hz:
        Centre frequency of the wanted channel within the estimate.
    channel_bandwidth_hz:
        Integration bandwidth of the wanted channel and of each adjacent
        channel.
    offset_hz:
        Centre-to-centre offset of the adjacent channels; defaults to the
        channel bandwidth (contiguous channels).

    Returns
    -------
    dict
        Keys ``"lower_db"``, ``"upper_db"`` and ``"worst_db"``; values are
        adjacent-to-main power ratios in dB (more negative is better).
    """
    channel_bandwidth_hz = check_positive(channel_bandwidth_hz, "channel_bandwidth_hz")
    offset_hz = channel_bandwidth_hz if offset_hz is None else check_positive(offset_hz, "offset_hz")
    half = channel_bandwidth_hz / 2.0
    main = band_power(estimate, channel_centre_hz - half, channel_centre_hz + half)
    if main <= 0.0:
        raise MeasurementError("no power found in the main channel; check the centre frequency")
    lower = band_power(
        estimate, channel_centre_hz - offset_hz - half, channel_centre_hz - offset_hz + half
    )
    upper = band_power(
        estimate, channel_centre_hz + offset_hz - half, channel_centre_hz + offset_hz + half
    )
    floor = np.finfo(float).tiny
    lower_db = 10.0 * np.log10(max(lower, floor) / main)
    upper_db = 10.0 * np.log10(max(upper, floor) / main)
    return {
        "lower_db": float(lower_db),
        "upper_db": float(upper_db),
        "worst_db": float(max(lower_db, upper_db)),
    }
