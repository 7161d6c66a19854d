"""OFDM / multicarrier baseband modulation for the multistandard BIST.

Single-carrier PSK/QAM profiles stop where modern SDR standards begin: a
flexible BIST must also screen the high-PAPR, spectrally dense multicarrier
waveforms (in the spirit of the multi-standard programmable baseband
modulator of Hatai & Chakrabarti, arXiv:1009.6132).  This module provides
the OFDM waveform family end to end:

* :class:`OfdmParams` — the frozen, serializable parameter set (FFT size,
  used subcarriers with guard bands and DC null, cyclic-prefix length,
  deterministic comb pilot pattern);
* :class:`OfdmModulator` — data symbols -> subcarrier mapping -> zero-padded
  (oversampled) IFFT -> cyclic prefix -> serial complex envelope;
* :class:`OfdmDemodulator` — the synchronized inverse used by the BIST's
  closed-loop measurement: windowing anywhere inside the cyclic prefix
  (with exact integer-offset phase compensation), FFT, used-bin extraction;
* :func:`ofdm_grid_metrics` — per-subcarrier EVM and spectral flatness of a
  received grid against the known transmitted one, after a least-squares
  common complex-gain alignment (the BIST knows the transmitted data).

Conventions
-----------
``symbol_rate_hz`` of an OFDM profile/configuration is the *critically
sampled baseband rate* ``fs`` (samples per second at oversampling 1); the
subcarrier spacing is ``fs / fft_size`` and one OFDM symbol spans
``fft_size + cp_length`` critical samples.  Used subcarriers sit
symmetrically around a nulled DC bin; the remaining bins are guard bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.interpolation import sinc_interpolate
from ..errors import MeasurementError, ValidationError
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_1d_array, check_integer, check_power_of_two

__all__ = [
    "OfdmParams",
    "OfdmModulator",
    "OfdmDemodulator",
    "OfdmGridMetrics",
    "build_used_grid",
    "ofdm_grid_metrics",
]


@dataclass(frozen=True)
class OfdmParams:
    """Parameters of one OFDM waveform.

    Attributes
    ----------
    fft_size:
        IFFT/FFT length ``N`` at critical sampling (power of two).
    num_subcarriers:
        Number of *used* subcarriers (data + pilots), even, placed
        symmetrically at signed indices ``-n/2..-1, 1..n/2``; the DC bin is
        always nulled and the remaining bins are guard bands.
    cp_length:
        Cyclic-prefix length in critical samples.
    pilot_spacing:
        Every ``pilot_spacing``-th used subcarrier (in ascending index
        order, starting from the lowest) carries a fixed BPSK pilot instead
        of data, at the magnitude of a unit-power constellation.
    """

    fft_size: int = 32
    num_subcarriers: int = 26
    cp_length: int = 8
    pilot_spacing: int = 7

    def __post_init__(self) -> None:
        check_power_of_two(self.fft_size, "fft_size")
        if self.fft_size < 8:
            raise ValidationError("fft_size must be at least 8")
        check_integer(self.num_subcarriers, "num_subcarriers", minimum=2)
        if self.num_subcarriers % 2 != 0:
            raise ValidationError(
                "num_subcarriers must be even (used subcarriers sit symmetrically "
                "around the nulled DC bin)"
            )
        if self.num_subcarriers > self.fft_size - 2:
            raise ValidationError(
                f"num_subcarriers must leave the DC null and at least one guard bin: "
                f"got {self.num_subcarriers} used of {self.fft_size}"
            )
        check_integer(self.cp_length, "cp_length", minimum=1)
        if self.cp_length >= self.fft_size:
            raise ValidationError("cp_length must be shorter than fft_size")
        check_integer(self.pilot_spacing, "pilot_spacing", minimum=2)
        if self.num_data_subcarriers < 1:
            raise ValidationError("the pilot pattern leaves no data subcarriers")

    # ------------------------------------------------------------------ #
    # Subcarrier layout
    # ------------------------------------------------------------------ #
    @property
    def subcarrier_indices(self) -> np.ndarray:
        """Signed indices of the used subcarriers, ascending (DC excluded)."""
        half = self.num_subcarriers // 2
        return np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])

    @property
    def pilot_positions(self) -> np.ndarray:
        """Positions of the pilots within the ascending used-subcarrier list."""
        return np.arange(0, self.num_subcarriers, self.pilot_spacing)

    @property
    def data_positions(self) -> np.ndarray:
        """Positions of the data subcarriers within the used list."""
        mask = np.ones(self.num_subcarriers, dtype=bool)
        mask[self.pilot_positions] = False
        return np.flatnonzero(mask)

    @property
    def pilot_values(self) -> np.ndarray:
        """The fixed BPSK pilot symbols (alternating polarity comb)."""
        polarity = np.where(np.arange(self.pilot_positions.size) % 2 == 0, 1.0, -1.0)
        return polarity.astype(complex)

    @property
    def num_pilot_subcarriers(self) -> int:
        """Number of pilot subcarriers per OFDM symbol."""
        return int(self.pilot_positions.size)

    @property
    def num_data_subcarriers(self) -> int:
        """Number of data subcarriers per OFDM symbol."""
        return self.num_subcarriers - self.num_pilot_subcarriers

    @property
    def symbol_length(self) -> int:
        """One OFDM symbol (CP included) in critical samples."""
        return self.fft_size + self.cp_length

    # ------------------------------------------------------------------ #
    # Rate-dependent descriptors
    # ------------------------------------------------------------------ #
    def subcarrier_spacing_hz(self, sample_rate_hz: float) -> float:
        """Subcarrier spacing at the given critical sample rate."""
        return float(sample_rate_hz) / self.fft_size

    def symbol_duration_seconds(self, sample_rate_hz: float) -> float:
        """Duration of one OFDM symbol (CP included)."""
        return self.symbol_length / float(sample_rate_hz)

    def occupied_bandwidth_hz(self, sample_rate_hz: float) -> float:
        """Occupied bandwidth: the used span plus one spacing of skirt."""
        return (self.num_subcarriers + 1) * self.subcarrier_spacing_hz(sample_rate_hz)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OfdmParams":
        """Rebuild parameters serialized with :meth:`to_dict`.

        Unknown keys are ignored; parameters archived with a pilot amplitude
        other than 1.0 raise ``ValidationError``.
        """
        return cls(**known_field_kwargs(cls, data, fixed={"pilot_amplitude": 1.0}))


def build_used_grid(params: OfdmParams, data_symbols) -> np.ndarray:
    """Arrange data symbols and pilots into a ``(num_symbols, used)`` grid.

    ``data_symbols`` must hold a whole number of OFDM symbols' worth of data
    (``num_data_subcarriers`` each); the pilot comb is inserted at its fixed
    positions with its fixed values.
    """
    if not isinstance(params, OfdmParams):
        raise ValidationError("params must be an OfdmParams")
    data_symbols = check_1d_array(data_symbols, "data_symbols", dtype=complex)
    per_symbol = params.num_data_subcarriers
    if data_symbols.size % per_symbol != 0:
        raise ValidationError(
            f"data_symbols must hold a whole number of OFDM symbols: got "
            f"{data_symbols.size} symbols with {per_symbol} data subcarriers each"
        )
    num_symbols = data_symbols.size // per_symbol
    grid = np.zeros((num_symbols, params.num_subcarriers), dtype=complex)
    grid[:, params.data_positions] = data_symbols.reshape(num_symbols, per_symbol)
    grid[:, params.pilot_positions] = params.pilot_values
    return grid


class OfdmModulator:
    """Data symbols -> oversampled OFDM complex envelope.

    Parameters
    ----------
    params:
        The OFDM waveform parameters.
    oversampling:
        Integer envelope oversampling ratio ``L``; implemented as a
        zero-padded IFFT of length ``fft_size * L``, so the generated
        envelope is exactly band-limited to the used subcarriers.
    """

    def __init__(self, params: OfdmParams, oversampling: int = 1) -> None:
        if not isinstance(params, OfdmParams):
            raise ValidationError("params must be an OfdmParams")
        self._params = params
        self._oversampling = check_integer(oversampling, "oversampling", minimum=1)
        # Scale so a unit-power constellation yields the conventional OFDM
        # envelope power num_subcarriers / fft_size, independent of L.
        self._scale = (params.fft_size * self._oversampling) / np.sqrt(params.fft_size)

    @property
    def params(self) -> OfdmParams:
        """The OFDM parameters."""
        return self._params

    @property
    def oversampling(self) -> int:
        """The envelope oversampling ratio ``L``."""
        return self._oversampling

    @property
    def samples_per_symbol(self) -> int:
        """Envelope samples per OFDM symbol (CP included)."""
        return self._params.symbol_length * self._oversampling

    def round_up_data_symbols(self, num_data_symbols: int) -> int:
        """Smallest whole-OFDM-symbol data count >= ``num_data_symbols``."""
        per_symbol = self._params.num_data_subcarriers
        num_data_symbols = check_integer(num_data_symbols, "num_data_symbols", minimum=1)
        return int(np.ceil(num_data_symbols / per_symbol)) * per_symbol

    def modulate(self, data_symbols) -> np.ndarray:
        """Generate the serial complex envelope of the data at rate ``fs * L``."""
        params = self._params
        grid = build_used_grid(params, data_symbols)
        num_symbols = grid.shape[0]
        fft_length = params.fft_size * self._oversampling
        bins = np.zeros((num_symbols, fft_length), dtype=complex)
        # Signed subcarrier k lands in IFFT bin k mod (N * L): the zero
        # padding sits symmetrically around the Nyquist bin of the
        # oversampled grid, which is what makes the envelope band-limited.
        bins[:, params.subcarrier_indices % fft_length] = grid
        time = np.fft.ifft(bins, axis=1) * self._scale
        cp = params.cp_length * self._oversampling
        with_cp = np.concatenate([time[:, -cp:], time], axis=1)
        return with_cp.reshape(-1)


class OfdmDemodulator:
    """Serial OFDM envelope -> received used-subcarrier grid.

    The inverse of :class:`OfdmModulator` for a stream that starts at an
    OFDM symbol boundary (the beginning of the first cyclic prefix).
    """

    def __init__(self, params: OfdmParams, oversampling: int = 1) -> None:
        if not isinstance(params, OfdmParams):
            raise ValidationError("params must be an OfdmParams")
        self._params = params
        self._oversampling = check_integer(oversampling, "oversampling", minimum=1)
        self._scale = (params.fft_size * self._oversampling) / np.sqrt(params.fft_size)

    @property
    def params(self) -> OfdmParams:
        """The OFDM parameters."""
        return self._params

    @property
    def samples_per_symbol(self) -> int:
        """Envelope samples per OFDM symbol (CP included)."""
        return self._params.symbol_length * self._oversampling

    def demodulate(
        self,
        samples,
        num_symbols: int | None = None,
        timing_backoff: int = 0,
    ) -> np.ndarray:
        """Recover the ``(num_symbols, used)`` grid from a serial stream.

        Parameters
        ----------
        samples:
            Complex envelope samples at rate ``fs * L`` starting at the
            first sample of the first cyclic prefix.
        num_symbols:
            OFDM symbols to demodulate; defaults to every complete symbol
            in the stream.
        timing_backoff:
            Integer number of *critical* samples by which the FFT window is
            advanced into the cyclic prefix.  Any value in
            ``[0, cp_length]`` recovers identical symbols (up to numerical
            precision) for an ISI-free stream — the deterministic
            per-subcarrier phase ramp of the early window is compensated
            exactly.  A small backoff makes the closed-loop measurement
            robust to sub-sample residual timing error.
        """
        params = self._params
        samples = check_1d_array(samples, "samples", dtype=complex)
        timing_backoff = check_integer(timing_backoff, "timing_backoff", minimum=0)
        if timing_backoff > params.cp_length:
            raise ValidationError(
                f"timing_backoff must lie within the cyclic prefix "
                f"(0..{params.cp_length}), got {timing_backoff}"
            )
        per_symbol = self.samples_per_symbol
        available = samples.size // per_symbol
        if num_symbols is None:
            num_symbols = available
        num_symbols = check_integer(num_symbols, "num_symbols", minimum=1)
        if num_symbols > available:
            raise MeasurementError(
                f"stream holds only {available} complete OFDM symbol(s), "
                f"{num_symbols} requested"
            )
        oversampling = self._oversampling
        fft_length = params.fft_size * oversampling
        window_start = (params.cp_length - timing_backoff) * oversampling
        frames = samples[: num_symbols * per_symbol].reshape(num_symbols, per_symbol)
        windows = frames[:, window_start : window_start + fft_length]
        bins = np.fft.fft(windows, axis=1) / self._scale
        grid = bins[:, params.subcarrier_indices % fft_length]
        if timing_backoff:
            # An FFT window advanced d critical samples into the CP sees
            # subcarrier k rotated by exp(-2j pi k d / N); undo it exactly.
            ramp = np.exp(
                2j * np.pi * params.subcarrier_indices * timing_backoff / params.fft_size
            )
            grid = grid * ramp
        return grid


@dataclass(frozen=True)
class OfdmGridMetrics:
    """Per-subcarrier measurement bundle of one received OFDM grid.

    Attributes
    ----------
    evm_percent:
        Aggregate RMS EVM over every used cell, percent.
    per_subcarrier_evm_percent:
        RMS EVM per used subcarrier (ascending index order), percent.
    subcarrier_indices:
        The signed used-subcarrier indices the entries correspond to.
    spectral_flatness_db:
        Spread (max/min, dB) of the per-subcarrier received-power gain
        relative to the reference grid — 0 dB for a perfectly flat channel.
    num_symbols:
        OFDM symbols the statistics were averaged over.
    """

    evm_percent: float
    per_subcarrier_evm_percent: tuple
    subcarrier_indices: tuple
    spectral_flatness_db: float
    num_symbols: int


def ofdm_grid_metrics(
    params: OfdmParams, reference_grid, received_grid
) -> OfdmGridMetrics:
    """Per-subcarrier EVM and flatness of a received grid vs the known one.

    A single least-squares complex gain aligns the received grid onto the
    reference (the BIST knows the transmitted data), so the metrics are
    invariant under common phase rotation and complex scaling of the
    received signal; per-subcarrier structure — IQ-imbalance image leakage,
    filter tilt, subcarrier-selective distortion — survives the alignment
    and is exactly what these metrics expose.
    """
    if not isinstance(params, OfdmParams):
        raise ValidationError("params must be an OfdmParams")
    reference = np.asarray(reference_grid, dtype=complex)
    received = np.asarray(received_grid, dtype=complex)
    if reference.ndim != 2 or reference.shape[1] != params.num_subcarriers:
        raise ValidationError(
            "reference_grid must be (num_symbols, num_subcarriers) for these parameters"
        )
    if received.shape != reference.shape:
        raise ValidationError("received_grid and reference_grid must have the same shape")
    reference_power = np.mean(np.abs(reference) ** 2, axis=0)
    if np.any(reference_power <= 0.0):
        raise MeasurementError("a reference subcarrier has zero power; EVM undefined")
    received_energy = np.vdot(received, received)
    if abs(received_energy) <= 0.0:
        raise MeasurementError("received grid has zero power; EVM undefined")
    gain = np.vdot(received, reference) / received_energy
    aligned = received * gain

    error_power = np.mean(np.abs(aligned - reference) ** 2, axis=0)
    per_subcarrier = 100.0 * np.sqrt(error_power / reference_power)
    aggregate = 100.0 * np.sqrt(float(np.mean(error_power)) / float(np.mean(reference_power)))

    channel_gain = np.mean(np.abs(aligned) ** 2, axis=0) / reference_power
    positive = channel_gain[channel_gain > 0.0]
    if positive.size == channel_gain.size:
        flatness_db = float(10.0 * np.log10(np.max(channel_gain) / np.min(channel_gain)))
    else:
        flatness_db = float("inf")
    return OfdmGridMetrics(
        evm_percent=float(aggregate),
        per_subcarrier_evm_percent=tuple(float(v) for v in per_subcarrier),
        subcarrier_indices=tuple(int(k) for k in params.subcarrier_indices),
        spectral_flatness_db=flatness_db,
        num_symbols=int(reference.shape[0]),
    )


def _whole_symbol_metrics(
    params: OfdmParams,
    oversampling: int,
    reference_grid: np.ndarray,
    envelope: np.ndarray,
    sample_rate: float,
    envelope_start: float,
    usable: tuple,
    symbol_duration: float,
    symbol_start: float = 0.0,
    min_symbols: int = 2,
) -> OfdmGridMetrics:
    """Grid metrics of the OFDM symbols lying whole inside ``usable``.

    Symbol ``k`` occupies ``[symbol_start + k d, symbol_start + (k + 1) d)``
    with ``d = symbol_duration``, and ``envelope`` is uniform at
    ``sample_rate`` from ``envelope_start``.  The kept symbols are band-limit
    resampled onto their exact sample grid (it is not phase-aligned with the
    envelope's), demodulated with the FFT window a quarter of the cyclic
    prefix early, which keeps it inside the ISI-free region under small
    residual timing error either way, and compared against their rows of
    ``reference_grid``.  The batch measurement and the streaming monitor
    both demodulate through here; each picks its own ``usable`` interval
    (edge guards) and symbol duration.

    Raises :class:`~repro.errors.MeasurementError` when fewer than
    ``min_symbols`` symbols fit, or when :func:`ofdm_grid_metrics` does.
    """
    low, high = usable
    first = max(int(np.ceil((low - symbol_start) / symbol_duration)), 0)
    last = int(np.floor((high - symbol_start) / symbol_duration)) - 1
    last = min(last, reference_grid.shape[0] - 1)
    count = last - first + 1
    if count < min_symbols:
        raise MeasurementError(
            f"window covers {max(count, 0)} whole OFDM symbol(s) after edge guards; "
            f"at least {min_symbols} needed"
        )
    grid_times = (
        symbol_start
        + first * symbol_duration
        + np.arange(count * params.symbol_length * oversampling) / sample_rate
    )
    stream = sinc_interpolate(
        envelope, sample_rate, grid_times, start_time=envelope_start, num_taps=32
    )
    received = OfdmDemodulator(params, oversampling=oversampling).demodulate(
        stream, num_symbols=count, timing_backoff=params.cp_length // 4
    )
    return ofdm_grid_metrics(params, reference_grid[first : last + 1], received)
