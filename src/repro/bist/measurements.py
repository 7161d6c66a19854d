"""Transmitter measurements computed from the reconstructed output waveform.

Once the BP-TIADC samples have been calibrated and the bandpass waveform
reconstructed, the BIST DSP derives the quantities the test specification
actually talks about: the output spectrum (for mask compliance), the
adjacent-channel power ratio, the occupied bandwidth, and the error vector
magnitude against the known transmitted symbols.

The reconstructor produced by :mod:`repro.sampling` is a *continuous-time*
model (it can be evaluated anywhere), so the measurement code first renders
it onto a dense uniform grid far above the carrier Nyquist rate; everything
downstream is conventional DSP on that grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.filters import lowpass_fir
from ..dsp.interpolation import sinc_interpolate
from ..dsp.metrics import error_vector_magnitude
from ..dsp.spectrum import (
    SpectrumEstimate,
    _band_bins,
    adjacent_channel_power_ratio,
    occupied_bandwidth,
    welch_psd,
)
from ..errors import MeasurementError, ValidationError
from ..sampling.reconstruction import NonuniformReconstructor
from ..signals.ofdm import OfdmGridMetrics, _whole_symbol_metrics, build_used_grid
from ..transmitter.chain import TransmissionResult
from ..utils.validation import check_positive

__all__ = [
    "OFDM_DENSE_OVERSAMPLING",
    "render_uniform",
    "reconstructed_envelope",
    "envelope_from_dense_samples",
    "measure_spectrum_from_samples",
    "measure_acpr",
    "measure_occupied_bandwidth",
    "measure_evm",
    "measure_ofdm_evm",
    "TxMeasurements",
]

#: Dense-render rate multiple of the band's upper edge used by the OFDM
#: measurement paths.  OFDM acquisition windows are sized in whole OFDM
#: symbols and are an order of magnitude longer than single-carrier ones;
#: 2.5 x f_high still comfortably oversamples the band-limited
#: reconstruction while keeping the render affordable.  Single-carrier
#: measurements keep :func:`render_uniform`'s 4 x f_high default.
OFDM_DENSE_OVERSAMPLING = 2.5

#: Transmitted symbols (from the first) that single-carrier EVM compares.
EVM_MAX_SYMBOLS = 256

#: Spectrum bins the occupied-bandwidth search window must hold.
OBW_MIN_BINS = 16


def render_uniform(
    reconstructor: NonuniformReconstructor,
    start_time: float,
    stop_time: float,
    sample_rate: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Render the reconstructed waveform onto a dense uniform grid.

    Parameters
    ----------
    reconstructor:
        The calibrated nonuniform reconstructor.
    start_time, stop_time:
        Interval to render; it is clipped to the reconstructor's valid range.
    sample_rate:
        Dense grid rate; defaults to four times the band's upper edge, which
        comfortably avoids aliasing of the reconstructed bandpass signal.

    Returns
    -------
    tuple
        ``(times, samples, sample_rate)``.

    Notes
    -----
    The uniform grid is rendered directly at the reconstructor's assumed
    delay, a block of kernel rows at a time, and nothing is kept (see
    :meth:`~repro.sampling.reconstruction.NonuniformReconstructor.evaluate`);
    the BIST engine renders each dense grid once and shares the samples
    between the output-power and spectrum measurements (see
    :func:`measure_spectrum_from_samples`), so prefer reusing the returned
    samples over calling this twice for the same interval.
    """
    if not isinstance(reconstructor, NonuniformReconstructor):
        raise ValidationError("reconstructor must be a NonuniformReconstructor")
    valid_low, valid_high = reconstructor.valid_time_range()
    start_time = max(float(start_time), valid_low)
    stop_time = min(float(stop_time), valid_high)
    if stop_time <= start_time:
        raise MeasurementError(
            "the requested rendering interval does not overlap the reconstructor's valid range"
        )
    if sample_rate is None:
        sample_rate = 4.0 * reconstructor.kernel.band.f_high
    sample_rate = check_positive(sample_rate, "sample_rate")
    num_samples = int(np.floor((stop_time - start_time) * sample_rate))
    if num_samples < 64:
        raise MeasurementError("rendering interval too short for a meaningful measurement")
    times = start_time + np.arange(num_samples) / sample_rate
    return times, reconstructor.evaluate(times), sample_rate


def reconstructed_envelope(
    reconstructor: NonuniformReconstructor,
    carrier_frequency_hz: float,
    start_time: float,
    stop_time: float,
    envelope_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the complex envelope of the reconstructed output around a carrier.

    The reconstruction is rendered densely, multiplied by the conjugate
    carrier, low-pass filtered to reject the ``2 * fc`` image and decimated to
    ``envelope_rate``.

    Returns
    -------
    tuple
        ``(times, envelope)`` where ``envelope`` is complex at ``envelope_rate``.
    """
    carrier_frequency_hz = check_positive(carrier_frequency_hz, "carrier_frequency_hz")
    envelope_rate = check_positive(envelope_rate, "envelope_rate")
    # Snap the dense rendering rate to an exact integer multiple of the
    # requested envelope rate so the decimation is drift-free.
    band = reconstructor.kernel.band
    dense_rate = np.ceil(4.0 * band.f_high / envelope_rate) * envelope_rate
    times, samples, dense = render_uniform(
        reconstructor, start_time, stop_time, sample_rate=dense_rate
    )
    return envelope_from_dense_samples(
        times,
        samples,
        dense,
        carrier_frequency_hz=carrier_frequency_hz,
        envelope_rate=envelope_rate,
    )


def envelope_from_dense_samples(
    times: np.ndarray,
    samples: np.ndarray,
    dense_rate: float,
    carrier_frequency_hz: float,
    envelope_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Complex envelope of an already-rendered dense passband record.

    Split out of :func:`reconstructed_envelope` so callers that have
    rendered the reconstruction once (the BIST engine shares a single dense
    render between the spectrum and OFDM EVM measurements) do not pay for a
    second full reconstruction pass.  ``dense_rate`` must be an integer
    multiple of ``envelope_rate``: the record is decimated by that integer,
    so any other ratio would return samples spaced at a rate other than
    ``envelope_rate``.
    """
    carrier_frequency_hz = check_positive(carrier_frequency_hz, "carrier_frequency_hz")
    envelope_rate = check_positive(envelope_rate, "envelope_rate")
    ratio = check_positive(dense_rate, "dense_rate") / envelope_rate
    decimation = int(round(ratio))
    if decimation < 1 or abs(ratio - decimation) > 1e-9 * decimation:
        raise ValidationError(
            f"dense_rate {dense_rate} Hz is not an integer multiple of envelope_rate "
            f"{envelope_rate} Hz"
        )
    analytic = samples * np.exp(-2j * np.pi * carrier_frequency_hz * times)
    cutoff = min(envelope_rate / 2.0, carrier_frequency_hz * 0.8)
    taps = lowpass_fir(cutoff, dense_rate, num_taps=129)
    # Only the kept outputs are filtered: the output centred on sample i is
    # the window of the zero-padded record starting at i against the
    # reversed taps, so the decimation strides over the windows.
    bulk = (taps.size - 1) // 2
    windows = sliding_window_view(np.pad(analytic, bulk), taps.size)[::decimation]
    # Factor 2: the complex mixing halves the envelope amplitude.
    return times[::decimation], 2.0 * (windows @ taps[::-1])


def measure_spectrum_from_samples(
    samples: np.ndarray,
    sample_rate: float,
    bandwidth_hz: float,
) -> SpectrumEstimate:
    """Welch PSD of an already-rendered uniform waveform.

    Takes a render from :func:`render_uniform` so callers that have rendered
    the reconstruction once (the BIST engine shares a single dense render
    between the output-power and spectrum measurements) do not pay for a
    second full reconstruction pass.  The resolution is about 1/256 of
    ``bandwidth_hz`` (the segment length is the next power of two), so that
    in-band structure (mask skirts, adjacent channels) is resolved
    regardless of the dense rendering rate.
    """
    samples = np.asarray(samples, dtype=float)
    sample_rate = check_positive(sample_rate, "sample_rate")
    resolution_hz = check_positive(bandwidth_hz, "bandwidth_hz") / 256.0
    segment_length = int(2 ** np.ceil(np.log2(sample_rate / resolution_hz)))
    segment_length = min(segment_length, samples.size)
    return welch_psd(samples, sample_rate, segment_length=segment_length)


def measure_acpr(
    spectrum: SpectrumEstimate,
    channel_centre_hz: float,
    channel_bandwidth_hz: float,
    channel_spacing_hz: float | None = None,
) -> dict[str, float]:
    """ACPR of the reconstructed output (wrapper over the DSP primitive)."""
    return adjacent_channel_power_ratio(
        spectrum,
        channel_centre_hz=channel_centre_hz,
        channel_bandwidth_hz=channel_bandwidth_hz,
        offset_hz=channel_spacing_hz,
    )


def measure_occupied_bandwidth(
    spectrum: SpectrumEstimate,
    channel_centre_hz: float,
    search_half_width_hz: float,
) -> float:
    """Occupied bandwidth (Hz) measured inside a window around the carrier."""
    window = _band_bins(
        spectrum.frequencies_hz,
        channel_centre_hz - search_half_width_hz,
        channel_centre_hz + search_half_width_hz,
    )
    if window.stop - window.start < OBW_MIN_BINS:
        raise MeasurementError("spectrum does not cover the requested measurement window")
    windowed = SpectrumEstimate(
        frequencies_hz=spectrum.frequencies_hz[window],
        psd=spectrum.psd[window],
        resolution_hz=spectrum.resolution_hz,
        two_sided=spectrum.two_sided,
    )
    bandwidth, _, _ = occupied_bandwidth(windowed)
    return bandwidth


def measure_evm(reconstructor: NonuniformReconstructor, burst: TransmissionResult) -> float:
    """EVM (percent) of the reconstructed output against the transmitted symbols.

    The reconstructed output is demodulated with the transmitter's own
    matched filter, sampled at the known symbol instants, scaled/rotated onto
    the reference constellation by a least-squares complex gain (the BIST
    knows the transmitted data), and compared symbol by symbol over the
    first :data:`EVM_MAX_SYMBOLS` symbols.
    """
    if not isinstance(burst, TransmissionResult):
        raise ValidationError("burst must be a TransmissionResult")
    config = burst.config
    envelope_rate = config.envelope_sample_rate
    valid_low, valid_high = reconstructor.valid_time_range()
    times, envelope = reconstructed_envelope(
        reconstructor,
        carrier_frequency_hz=config.carrier_frequency_hz,
        start_time=valid_low,
        stop_time=valid_high,
        envelope_rate=envelope_rate,
    )
    # Matched filter using the transmitter's SRRC taps.  The transmitter
    # trimmed (N - 1) // 2 samples of the N-tap pulse, so trimming N // 2
    # here removes the cascade's full N - 1 delay for either parity of N.
    taps = burst_pulse_taps(burst)
    matched = np.convolve(envelope, np.conj(taps[::-1]))
    group_delay = taps.size // 2
    matched = matched[group_delay : group_delay + envelope.size]

    # Symbol instants: the transmitted symbol n sits at time n * Tsym
    # (the transmitter trimmed its shaping transients), offset by the SRRC
    # group delay already removed above.  The matched-filter output is
    # band-limited, so it is evaluated at the exact symbol instants by sinc
    # interpolation rather than nearest-sample picking (which would add
    # timing-error ISI of up to half an envelope sample).
    symbol_period = 1.0 / config.symbol_rate_hz
    num_symbols = min(EVM_MAX_SYMBOLS, burst.symbols.size)
    symbol_times = np.arange(num_symbols) * symbol_period
    margin = 2.0 / envelope_rate
    usable = (symbol_times >= times[0] + margin) & (symbol_times <= times[-1] - margin)
    if np.count_nonzero(usable) < 16:
        raise MeasurementError("too few symbols fall inside the reconstructed interval for EVM")
    symbol_times = symbol_times[usable]
    reference = burst.symbols[:num_symbols][usable]

    received = sinc_interpolate(
        matched, envelope_rate, symbol_times, start_time=times[0], num_taps=32
    )

    # Least-squares complex gain onto the reference constellation.
    gain = np.vdot(received, reference) / np.vdot(received, received)
    aligned = received * gain
    return error_vector_magnitude(reference, aligned, as_percent=True)


def measure_ofdm_evm(burst: TransmissionResult, render: tuple) -> OfdmGridMetrics:
    """Per-subcarrier EVM and spectral flatness of a reconstructed OFDM burst.

    The reconstructed output is mixed down to the complex envelope, and
    every OFDM symbol that falls completely inside it, 4 envelope samples
    clear of either edge, is demodulated against the known transmitted grid
    (the burst starts at t = 0, so symbol boundaries are known exactly; see
    :func:`~repro.signals.ofdm.ofdm_grid_metrics` for the alignment).

    Parameters
    ----------
    burst:
        The transmission whose data grid is the reference; its
        configuration must carry OFDM parameters.
    render:
        The ``(times, samples, sample_rate)`` dense render of the
        calibrated reconstruction over its valid interval (as returned by
        :func:`render_uniform`), shared with the spectrum measurement; the
        rate must be an integer multiple of the burst's envelope rate (the
        engine snaps its OFDM render rate up to one).
    """
    if not isinstance(burst, TransmissionResult):
        raise ValidationError("burst must be a TransmissionResult")
    config = burst.config
    params = config.ofdm
    if params is None:
        raise MeasurementError("measure_ofdm_evm needs an OFDM burst (config.ofdm is None)")
    envelope_rate = config.envelope_sample_rate
    dense_times, dense_samples, dense_rate = render
    times, envelope = envelope_from_dense_samples(
        dense_times,
        dense_samples,
        dense_rate,
        carrier_frequency_hz=config.carrier_frequency_hz,
        envelope_rate=envelope_rate,
    )
    margin = 4.0 / envelope_rate
    return _whole_symbol_metrics(
        params,
        config.samples_per_symbol,
        build_used_grid(params, burst.symbols),
        envelope,
        envelope_rate,
        times[0],
        (times[0] + margin, times[-1] - margin),
        params.symbol_duration_seconds(config.symbol_rate_hz),
    )


def burst_pulse_taps(burst: TransmissionResult) -> np.ndarray:
    """The SRRC taps used by the transmitter that produced ``burst``."""
    from ..signals.pulse_shaping import root_raised_cosine_taps

    config = burst.config
    return root_raised_cosine_taps(
        config.samples_per_symbol, config.pulse_span_symbols, config.rolloff
    )


@dataclass(frozen=True)
class TxMeasurements:
    """Bundle of transmitter measurements extracted from one reconstruction.

    Attributes
    ----------
    output_power:
        Mean power of the reconstructed passband waveform.
    acpr_db:
        ACPR dictionary (``lower_db`` / ``upper_db`` / ``worst_db``).
    occupied_bandwidth_hz:
        99 % occupied bandwidth.
    evm_percent:
        RMS EVM against the transmitted symbols (``None`` when not measured).
        For OFDM bursts this is the aggregate over every used subcarrier.
    spectrum:
        The Welch PSD estimate the other quantities were derived from.
    per_subcarrier_evm_percent:
        Per-subcarrier RMS EVM (ascending subcarrier order) for OFDM
        bursts; ``None`` for single-carrier measurements.
    subcarrier_indices:
        Signed used-subcarrier indices matching the per-subcarrier EVM
        entries (``None`` for single-carrier).
    spectral_flatness_db:
        Per-subcarrier received-power spread (dB) for OFDM bursts;
        ``None`` for single-carrier.
    """

    output_power: float
    acpr_db: dict
    occupied_bandwidth_hz: float
    evm_percent: float | None
    spectrum: SpectrumEstimate
    per_subcarrier_evm_percent: tuple | None = None
    subcarrier_indices: tuple | None = None
    spectral_flatness_db: float | None = None

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "output_power": self.output_power,
            "acpr_db": dict(self.acpr_db),
            "occupied_bandwidth_hz": self.occupied_bandwidth_hz,
            "evm_percent": self.evm_percent,
            "spectrum": self.spectrum.to_dict(),
            "per_subcarrier_evm_percent": (
                None
                if self.per_subcarrier_evm_percent is None
                else [float(v) for v in self.per_subcarrier_evm_percent]
            ),
            "subcarrier_indices": (
                None
                if self.subcarrier_indices is None
                else [int(k) for k in self.subcarrier_indices]
            ),
            "spectral_flatness_db": self.spectral_flatness_db,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TxMeasurements":
        """Rebuild measurements serialized with :meth:`to_dict`.

        Archives written before the OFDM family simply lack the
        per-subcarrier keys and load with those fields ``None``.
        """
        per_subcarrier = data.get("per_subcarrier_evm_percent")
        indices = data.get("subcarrier_indices")
        return cls(
            output_power=data["output_power"],
            acpr_db=dict(data["acpr_db"]),
            occupied_bandwidth_hz=data["occupied_bandwidth_hz"],
            evm_percent=data["evm_percent"],
            spectrum=SpectrumEstimate.from_dict(data["spectrum"]),
            per_subcarrier_evm_percent=(
                None if per_subcarrier is None else tuple(float(v) for v in per_subcarrier)
            ),
            subcarrier_indices=None if indices is None else tuple(int(k) for k in indices),
            spectral_flatness_db=data.get("spectral_flatness_db"),
        )
