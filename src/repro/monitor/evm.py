"""Windowed EVM against known transmitted symbols.

The batch :func:`repro.bist.measurements.measure_evm` demodulates one whole
reconstructed burst.  A streaming monitor instead sees the complex envelope
one measurement window at a time, and each window must be demodulated
*standalone* — using only its own samples — so the resulting EVM is
invariant to how the stream was partitioned into ingest blocks.

The demodulation mirrors the batch path symbol for symbol: matched filter
with the transmitter's own SRRC taps, band-limited (sinc) interpolation at
the known symbol instants, least-squares complex-gain alignment onto the
reference constellation, RMS EVM.  Both filters are fixed and linear, so
:class:`SymbolKernelTable` folds them, once per session, into one kernel per
fractional symbol phase; a window then reads each symbol as one dot product
of that kernel with the window's raw samples.  Window edges corrupted by the
matched filter and interpolator transients are excluded via a guard margin,
so only symbols the window can demodulate cleanly contribute.

OFDM streams get the same treatment through :class:`OfdmSymbolReference`
and :func:`windowed_ofdm_evm`: every OFDM symbol that falls *whole* inside
the window (with an interpolation guard) is demodulated by the one
whole-symbol OFDM demodulator, which the batch
:func:`~repro.bist.measurements.measure_ofdm_evm` calls too, and compared
against the known transmitted grid.  Windows too short for a whole symbol
return ``None`` with an explicit reason instead of silently dropping EVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.metrics import error_vector_magnitude
from ..errors import MeasurementError, ValidationError
from ..signals.ofdm import OfdmParams, _whole_symbol_metrics, build_used_grid
from ..utils.validation import check_1d_array, check_integer, check_positive
from ..utils.windows import evaluate_taper

__all__ = [
    "SymbolReference",
    "SymbolKernelTable",
    "OfdmSymbolReference",
    "windowed_evm",
    "windowed_ofdm_evm",
]

#: Interpolator taps (matches the batch EVM path).
_INTERPOLATION_TAPS = 32


@dataclass(frozen=True)
class SymbolReference:
    """What the monitor must know to demodulate a window: the sent data.

    Attributes
    ----------
    symbols:
        The transmitted constellation symbols (complex), symbol ``n`` at
        time ``start_time + n / symbol_rate_hz``.
    symbol_rate_hz:
        Symbol rate of the stream under monitor.
    pulse_taps:
        The transmitter's pulse-shaping (SRRC) taps at the envelope rate;
        the monitor matched-filters each window with their conjugate.
    start_time:
        Stream time of symbol 0 (seconds).
    """

    symbols: np.ndarray
    symbol_rate_hz: float
    pulse_taps: np.ndarray
    start_time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "symbols", check_1d_array(self.symbols, "symbols", dtype=complex)
        )
        object.__setattr__(
            self, "pulse_taps", check_1d_array(self.pulse_taps, "pulse_taps")
        )
        check_positive(self.symbol_rate_hz, "symbol_rate_hz")

    @classmethod
    def from_transmission(cls, burst) -> "SymbolReference":
        """Build the reference from a :class:`~repro.transmitter.TransmissionResult`.

        Only single-carrier bursts carry an SRRC reference the windowed
        demodulator understands; OFDM bursts raise
        :class:`~repro.errors.ValidationError` (use
        :meth:`OfdmSymbolReference.from_transmission` for those).
        """
        from ..bist.measurements import burst_pulse_taps

        if burst.config.ofdm is not None:
            raise ValidationError(
                "SymbolReference supports single-carrier bursts only; build an "
                "OfdmSymbolReference for OFDM streams instead"
            )
        return cls(
            symbols=burst.symbols,
            symbol_rate_hz=burst.config.symbol_rate_hz,
            pulse_taps=burst_pulse_taps(burst),
            start_time=float(burst.output_envelope.start_time),
        )


def _shared_phases(positions: np.ndarray, tolerance: float):
    """Group symbols whose instants share a sample phase: ``(base, phases)``.

    Symbol ``k`` sits ``positions[k]`` samples into the stream.  A symbol
    train whose step is ``p/q`` samples repeats its fractional phase every
    ``q`` symbols, so symbol ``r + m q`` sits ``m p`` whole samples after
    symbol ``r``, at the same phase.  The step is read from the positions
    alone and then verified: every symbol must sit at its base sample plus
    its row's phase to within ``tolerance`` samples, the noise of computing
    the instants directly.

    Returns each symbol's base sample and the ``q`` phases (each in
    ``[0, 1)``; symbol ``k`` has phase ``k % q``), or ``None`` when the check
    fails.
    """
    count = positions.size
    if count < 2:
        return None
    ratio = (positions[-1] - positions[0]) / (count - 1)
    if not abs(ratio) < 2**32:  # rejects nan and inf, and keeps m*p inside int64
        return None
    step = Fraction(ratio).limit_denominator(count - 1)
    index = np.arange(count)
    row_of = index % step.denominator
    first = np.floor(positions[: step.denominator])
    phases = positions[: step.denominator] - first
    base = first.astype(np.int64)[row_of] + (index // step.denominator) * step.numerator
    if np.abs(positions - base - phases[row_of]).max() > tolerance:
        return None
    return base, phases


class SymbolKernelTable:
    """Matched filter and symbol-instant interpolator, folded once per session.

    A window's received symbol is the matched-filter output sinc-interpolated
    at the symbol's instant.  Both are fixed linear filters, so together they
    are one kernel of ``len(pulse_taps) + 31`` taps on the raw envelope: the
    32-tap Kaiser-sinc row of :func:`~repro.dsp.sinc_interpolate` (beta 8) at
    the instant's fractional sample phase, convolved with the conjugate
    pulse.  The kernel depends on the phase alone, so symbols that share a
    phase share a row.

    The table holds each symbol's first kernel sample in the stream and one
    row per distinct phase, found from the symbol instants (see
    :func:`_shared_phases`): a whole number of samples per symbol gives one
    row, a verified ``p/q`` step ``q`` rows, symbol ``k`` taking row
    ``k % q``.  Instants that fail the check get one row per symbol, built
    for each window's own symbols rather than held for the whole session.

    Parameters
    ----------
    reference:
        The known transmitted symbols and pulse shape.
    sample_rate:
        Rate of the monitored stream (Hz).
    start_time:
        Stream time of the stream's first sample (seconds), on the clock of
        ``reference.start_time``.
    """

    def __init__(
        self, reference: SymbolReference, sample_rate: float, start_time: float = 0.0
    ) -> None:
        if not isinstance(reference, SymbolReference):
            raise ValidationError("reference must be a SymbolReference")
        self.reference = reference
        self.sample_rate = check_positive(sample_rate, "sample_rate")
        self.start_time = float(start_time)
        taps = reference.pulse_taps
        width = taps.size + _INTERPOLATION_TAPS - 1
        # Row j is the conjugate pulse delayed by j samples, so an
        # interpolation row times this stack is the row convolved with it.
        padding = np.zeros(_INTERPOLATION_TAPS - 1)
        padded = np.concatenate([padding, np.conj(taps.astype(complex)), padding])
        self._shifted_pulse = np.ascontiguousarray(sliding_window_view(padded, width)[::-1])

        times = reference.start_time + np.arange(reference.symbols.size) * (
            1.0 / reference.symbol_rate_hz
        )
        positions = (times - self.start_time) * self.sample_rate
        tolerance = 4.0 * np.spacing(np.abs(times).max() + abs(self.start_time)) * self.sample_rate
        shared = _shared_phases(positions, tolerance)
        if shared is None:
            base = np.floor(positions).astype(np.int64)
            self._phases = positions - base
            self._rows = None
        else:
            base, phases = shared
            self._rows = self._kernels(phases)
        # The interpolator reads from half - 1 samples before the base, and
        # the matched filter, trimmed by N // 2 (the transmitter trimmed
        # (N - 1) // 2, so the two remove the cascade's N - 1 delay), from
        # N - 1 - N // 2 samples before that.
        self._first_sample = (
            base - (taps.size - 1 - taps.size // 2) - (_INTERPOLATION_TAPS // 2 - 1)
        )

    def _kernels(self, phases: np.ndarray) -> np.ndarray:
        """The ``(len(phases), width)`` kernels at fractional sample ``phases``."""
        half = _INTERPOLATION_TAPS // 2
        distance = phases[:, None] - np.arange(1 - half, _INTERPOLATION_TAPS - half + 1)
        interpolator = np.sinc(distance) * evaluate_taper(distance / half)
        return interpolator @ self._shifted_pulse

    def demodulate(self, envelope: np.ndarray, start_sample: int, first: int, last: int):
        """Matched-filtered values of symbols ``first..last`` from one window.

        ``envelope`` is the window's samples, starting at stream sample
        ``start_sample``; every chosen symbol's kernel must lie inside it.
        With shared rows, the symbols of each row are read by one
        matrix-vector product of their spans with that row (one product in
        all for a whole number of samples per symbol); otherwise each
        symbol's own kernel meets its span.
        """
        chosen = slice(first, last + 1)
        starts = self._first_sample[chosen] - start_sample
        if self._rows is None:
            kernels = self._kernels(self._phases[chosen])
            spans = sliding_window_view(envelope, kernels.shape[1])[starts]
            return (spans[:, None, :] @ kernels[:, :, None])[:, 0, 0]
        spans = sliding_window_view(envelope, self._rows.shape[1])
        count = len(self._rows)
        received = np.empty(starts.size, dtype=complex)
        for offset in range(min(count, starts.size)):
            row = self._rows[(first + offset) % count]
            received[offset::count] = spans[starts[offset::count]] @ row
        return received


@dataclass(frozen=True)
class OfdmSymbolReference:
    """What the monitor must know to demodulate whole OFDM symbols.

    Attributes
    ----------
    reference_grid:
        The transmitted used-subcarrier grid, ``(num_symbols, used)``
        complex (data plus the fixed pilot comb) — see
        :func:`~repro.signals.ofdm.build_used_grid`.
    params:
        The OFDM waveform parameters.
    oversampling:
        Envelope samples per critical sample (the transmitter's
        ``samples_per_symbol``), so one OFDM symbol spans
        ``params.symbol_length * oversampling`` envelope samples.
    start_time:
        Stream time of the first sample of symbol 0's cyclic prefix.
    """

    reference_grid: np.ndarray
    params: object
    oversampling: int = 1
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.params, OfdmParams):
            raise ValidationError("params must be an OfdmParams")
        grid = np.asarray(self.reference_grid, dtype=complex)
        if grid.ndim != 2 or grid.shape[1] != self.params.num_subcarriers:
            raise ValidationError(
                "reference_grid must be (num_symbols, num_subcarriers) complex"
            )
        object.__setattr__(self, "reference_grid", grid)
        check_integer(self.oversampling, "oversampling", minimum=1)

    @property
    def samples_per_symbol(self) -> int:
        """Envelope samples per OFDM symbol (CP included)."""
        return self.params.symbol_length * self.oversampling

    @classmethod
    def from_transmission(cls, burst) -> "OfdmSymbolReference":
        """Build the reference from an OFDM :class:`~repro.transmitter.TransmissionResult`."""
        params = burst.config.ofdm
        if params is None:
            raise ValidationError(
                "OfdmSymbolReference needs an OFDM burst (config.ofdm is None); "
                "use SymbolReference for single-carrier streams"
            )
        return cls(
            reference_grid=build_used_grid(params, burst.symbols),
            params=params,
            oversampling=burst.config.samples_per_symbol,
            start_time=float(burst.output_envelope.start_time),
        )


def _guard_samples(reference: SymbolReference) -> int:
    """Samples :func:`windowed_evm` keeps clear of symbols at each window edge.

    Half the matched filter span plus the interpolator's width: it keeps
    every chosen symbol's kernel at least 15 samples inside the window.
    """
    return (reference.pulse_taps.size - 1) // 2 + _INTERPOLATION_TAPS


def _narrowest_evm_window(reference: SymbolReference, sample_rate: float, min_symbols: int) -> int:
    """Fewest samples a window needs for :func:`windowed_evm` at any symbol phase.

    A window of ``n`` samples spans ``n - 1`` sample periods.  Inside its
    guards that span must cover ``min_symbols`` symbol periods, so that it
    holds ``min_symbols`` symbol instants wherever the window starts.
    """
    symbol_span = int(np.ceil(min_symbols * sample_rate / reference.symbol_rate_hz))
    return 2 * _guard_samples(reference) + symbol_span + 1


def windowed_evm(
    envelope: np.ndarray,
    start_sample: int,
    table: SymbolKernelTable,
    min_symbols: int = 16,
) -> float | None:
    """RMS EVM (percent) of one measurement window, or ``None``.

    Parameters
    ----------
    envelope:
        Complex-envelope samples of the window (uniform at
        ``table.sample_rate``).
    start_sample:
        Index of ``envelope[0]`` in the monitored stream, whose sample 0
        sits at ``table.start_time``.
    table:
        The session's :class:`SymbolKernelTable`: the known transmitted
        symbols and pulse shape, placed on the stream's clock.
    min_symbols:
        Windows demodulating fewer clean symbols than this return ``None``
        (too short / too close to the stream edges), which the drift
        detector skips — a partial window must not masquerade as a
        measurement.

    Notes
    -----
    The EVM depends only on the window's own samples, never on neighbouring
    windows, so it is bit-identical under any re-blocking of the stream that
    preserves window boundaries.
    """
    envelope = check_1d_array(envelope, "envelope", dtype=complex)
    start_sample = check_integer(start_sample, "start_sample", minimum=0)
    min_symbols = check_integer(min_symbols, "min_symbols", minimum=1)
    if not isinstance(table, SymbolKernelTable):
        raise ValidationError("table must be a SymbolKernelTable")
    reference = table.reference
    sample_rate = table.sample_rate
    window_start_time = table.start_time + start_sample / sample_rate

    margin = _guard_samples(reference) / sample_rate
    window_end_time = window_start_time + (envelope.size - 1) / sample_rate
    usable_low = window_start_time + margin
    usable_high = window_end_time - margin
    if usable_high <= usable_low:
        return None

    symbol_period = 1.0 / reference.symbol_rate_hz
    first = int(np.ceil((usable_low - reference.start_time) / symbol_period))
    last = int(np.floor((usable_high - reference.start_time) / symbol_period))
    first = max(first, 0)
    last = min(last, reference.symbols.size - 1)
    if last - first + 1 < min_symbols:
        return None

    received = table.demodulate(envelope, start_sample, first, last)
    sent = reference.symbols[first : last + 1]

    denominator = np.vdot(received, received)
    if float(np.abs(denominator)) <= 0.0:
        return None
    gain = np.vdot(received, sent) / denominator
    return float(error_vector_magnitude(sent, received * gain, as_percent=True))


def windowed_ofdm_evm(
    envelope: np.ndarray,
    sample_rate: float,
    window_start_time: float,
    reference: OfdmSymbolReference,
    min_symbols: int = 2,
) -> tuple:
    """``(evm_percent, skipped_reason)`` of one window of an OFDM stream.

    Every OFDM symbol falling *whole* inside the window, with a guard of
    32 samples (the interpolator's width) at each edge, is demodulated
    against the transmitted grid by the whole-symbol demodulator the batch
    :func:`~repro.bist.measurements.measure_ofdm_evm` uses.

    Exactly one of the returned pair is ``None``: on success the reason is
    ``None``, otherwise the EVM is ``None`` and the reason says why the
    window could not be demodulated (too few whole symbols, zero power, …).
    Only the window's own samples are used, so the result is invariant
    under re-blocking of the stream.
    """
    envelope = check_1d_array(envelope, "envelope", dtype=complex)
    sample_rate = check_positive(sample_rate, "sample_rate")
    min_symbols = check_integer(min_symbols, "min_symbols", minimum=2)

    margin = _INTERPOLATION_TAPS / sample_rate
    window_end_time = window_start_time + (envelope.size - 1) / sample_rate
    try:
        metrics = _whole_symbol_metrics(
            reference.params,
            reference.oversampling,
            reference.reference_grid,
            envelope,
            sample_rate,
            window_start_time,
            (window_start_time + margin, window_end_time - margin),
            reference.samples_per_symbol / sample_rate,
            symbol_start=reference.start_time,
            min_symbols=min_symbols,
        )
    except MeasurementError as exc:
        return None, str(exc)
    return float(metrics.evm_percent), None
