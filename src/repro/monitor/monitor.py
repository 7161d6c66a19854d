"""Streaming BIST monitor: windows, rolling metrics, continuous gating.

:class:`StreamingMonitor` is the façade tying the package together.  It
ingests arbitrary-size blocks of a transmitter's complex-envelope (or real
passband) stream, carves them into fixed-size measurement windows, measures
each window with the same DSP the batch engine uses (output power, ACPR,
occupied bandwidth, and — where the transmitted symbols are known — EVM),
and feeds every window's metric vector to a :class:`~repro.monitor.DriftDetector`
so slow degradation raises a :class:`~repro.monitor.DriftAlarm` instead of
waiting for the next offline campaign.

Two invariants the test suite leans on:

* **Partition invariance** — windows are defined in *samples*, and each
  window is measured from exactly its own samples: power, EVM and one
  :func:`~repro.dsp.welch_psd` of the window's concatenated samples.  The
  session-long spectrum is a :class:`~repro.monitor.StreamingAccumulator`
  (bit-identical to batch).  Re-blocking the same stream therefore
  reproduces every metric, alarm and report bit for bit.
* **Bounded memory** — only the current window and the Welch carry-over are
  retained, independent of stream length; the cumulative spectrum across
  the whole session is held as accumulated Welch state, not samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..dsp.spectrum import SpectrumEstimate, occupied_bandwidth, welch_psd
from ..errors import MeasurementError, ValidationError
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_integer, check_positive
from .accumulator import StreamingAccumulator
from .detector import DriftAlarm, DriftDetector, DriftDetectorConfig
from .evm import (
    OfdmSymbolReference,
    SymbolKernelTable,
    SymbolReference,
    windowed_evm,
    windowed_ofdm_evm,
)

__all__ = [
    "ChannelSpec",
    "MonitorConfig",
    "WindowMetrics",
    "MonitorReport",
    "StreamingMonitor",
    "iter_blocks",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Channel geometry of the monitored stream.

    For a complex-envelope stream the wanted channel is centred at 0 Hz;
    for a real passband stream it is centred on the carrier.  ``spacing_hz``
    defaults to contiguous adjacent channels, and the occupied bandwidth is
    searched within ``bandwidth_hz`` either side of the centre.
    """

    centre_hz: float
    bandwidth_hz: float
    spacing_hz: float | None = None

    def __post_init__(self) -> None:
        float(self.centre_hz)
        check_positive(self.bandwidth_hz, "bandwidth_hz")
        if self.spacing_hz is not None:
            check_positive(self.spacing_hz, "spacing_hz")

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        Unknown keys are ignored; a spec archived with its own
        occupied-bandwidth search width raises ``ValidationError``.
        """
        return cls(**known_field_kwargs(cls, data, fixed={"obw_search_half_width_hz": None}))


@dataclass(frozen=True)
class MonitorConfig:
    """Configuration of a streaming monitor session.

    Attributes
    ----------
    sample_rate:
        Rate of the ingested stream (Hz).
    window_samples:
        Measurement window size in samples; every metric/alarm decision is
        made once per window.  Must hold at least one Welch segment.
    segment_length:
        Welch segment length of both the per-window and the cumulative
        spectrum (see :func:`repro.dsp.welch_psd`).
    channel:
        Channel geometry for ACPR / occupied bandwidth; ``None`` monitors
        output power (and EVM when a reference is supplied) only.
    detector:
        Sequential drift-detector configuration.
    start_time:
        Stream time of the first ingested sample (seconds), used to place
        the known symbol instants for EVM.
    """

    sample_rate: float
    window_samples: int
    segment_length: int = 256
    channel: ChannelSpec | None = None
    detector: DriftDetectorConfig = field(default_factory=DriftDetectorConfig)
    start_time: float = 0.0

    #: Minimum cleanly demodulated symbols for a window EVM (fewer →
    #: ``None`` for that window).
    min_evm_symbols: ClassVar[int] = 16

    def __post_init__(self) -> None:
        check_positive(self.sample_rate, "sample_rate")
        check_integer(self.segment_length, "segment_length", minimum=8)
        check_integer(self.window_samples, "window_samples", minimum=self.segment_length)
        if self.channel is not None and not isinstance(self.channel, ChannelSpec):
            raise ValidationError("channel must be a ChannelSpec (or None)")
        if not isinstance(self.detector, DriftDetectorConfig):
            raise ValidationError("detector must be a DriftDetectorConfig")

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        data = field_dict(self)
        data["channel"] = None if self.channel is None else self.channel.to_dict()
        data["detector"] = self.detector.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorConfig":
        """Rebuild a config serialized with :meth:`to_dict`.

        Unknown keys are ignored; a config archived with another Welch taper
        or overlap than Hann at 50 %, or another EVM symbol floor, raises
        ``ValidationError``.
        """
        kwargs = known_field_kwargs(cls, data, fixed=_FIXED_WELCH)
        if isinstance(kwargs.get("channel"), dict):
            kwargs["channel"] = ChannelSpec.from_dict(kwargs["channel"])
        if isinstance(kwargs.get("detector"), dict):
            kwargs["detector"] = DriftDetectorConfig.from_dict(kwargs["detector"])
        return cls(**kwargs)


#: Welch settings earlier :class:`MonitorConfig` archives stored, at the
#: values :func:`~repro.dsp.welch_psd` fixes.  Their Kaiser beta only shaped
#: a Kaiser taper, so it loads at any value.
_FIXED_WELCH = {"overlap_fraction": 0.5, "window": "hann"}


@dataclass(frozen=True)
class WindowMetrics:
    """Measurements of one completed window (``None`` = not measurable).

    ``evm_skipped_reason`` says *why* ``evm_percent`` is ``None`` — no
    reference attached, a real-valued stream, too few clean symbols in the
    window — so a missing EVM in a report is a documented decision rather
    than a silent drop.  It is ``None`` whenever an EVM was measured.
    """

    index: int
    start_sample: int
    num_samples: int
    output_power: float
    acpr_worst_db: float | None
    occupied_bandwidth_hz: float | None
    evm_percent: float | None
    evm_skipped_reason: str | None = None

    def metric_values(self) -> dict:
        """The values keyed as the drift detector (and baseline gate) expects."""
        return {
            "output_power": self.output_power,
            "acpr_worst_db": self.acpr_worst_db,
            "occupied_bandwidth_hz": self.occupied_bandwidth_hz,
            "evm_percent": self.evm_percent,
        }

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)


@dataclass(frozen=True)
class MonitorReport:
    """End-of-session summary of a monitored stream."""

    config: MonitorConfig
    windows: tuple
    alarms: tuple
    samples_ingested: int
    segments_accumulated: int
    pending_samples: int
    baselines: dict
    statistics: dict

    @property
    def num_windows(self) -> int:
        """Completed measurement windows."""
        return len(self.windows)

    @property
    def alarmed_metrics(self) -> tuple:
        """Metrics that raised at least one alarm, in first-alarm order."""
        seen: list[str] = []
        for alarm in self.alarms:
            if alarm.metric not in seen:
                seen.append(alarm.metric)
        return tuple(seen)

    @property
    def first_alarm_window(self) -> int | None:
        """Window index of the earliest alarm (``None`` when quiet)."""
        return min((alarm.window_index for alarm in self.alarms), default=None)

    def summary(self) -> dict:
        """Compact dictionary of the session: windows, samples and alarms."""
        return {
            "windows": self.num_windows,
            "window_samples": self.config.window_samples,
            "samples_ingested": self.samples_ingested,
            "segments_accumulated": self.segments_accumulated,
            "alarms": len(self.alarms),
            "alarmed_metrics": list(self.alarmed_metrics),
            "first_alarm_window": self.first_alarm_window,
        }

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (the CLI's JSON alarm log)."""
        return {
            "config": self.config.to_dict(),
            "windows": [window.to_dict() for window in self.windows],
            "alarms": [alarm.to_dict() for alarm in self.alarms],
            "samples_ingested": self.samples_ingested,
            "segments_accumulated": self.segments_accumulated,
            "pending_samples": self.pending_samples,
            "baselines": dict(self.baselines),
            "statistics": dict(self.statistics),
            "summary": self.summary(),
        }


def iter_blocks(samples, block_samples: int):
    """Yield consecutive ``block_samples``-sized blocks of ``samples``.

    The final block may be shorter.  Convenience for driving a
    :class:`StreamingMonitor` from an already-materialised record (e.g. a
    :class:`~repro.transmitter.TransmissionResult` envelope).
    """
    samples = np.atleast_1d(np.asarray(samples))
    block_samples = check_integer(block_samples, "block_samples", minimum=1)
    for start in range(0, samples.size, block_samples):
        yield samples[start : start + block_samples]


class StreamingMonitor:
    """Continuously monitor a sample stream against a (learned) baseline.

    Parameters
    ----------
    config:
        Session configuration (:class:`MonitorConfig`).
    reference:
        Optional :class:`~repro.monitor.SymbolReference` (single-carrier) or
        :class:`~repro.monitor.OfdmSymbolReference` (OFDM) enabling
        per-window EVM for streams with known data.
    baseline:
        Optional explicit per-metric baseline for the drift detector;
        without it the detector learns baselines over its warm-up windows.
    """

    def __init__(
        self,
        config: MonitorConfig,
        reference=None,
        baseline: dict | None = None,
    ) -> None:
        if not isinstance(config, MonitorConfig):
            raise ValidationError("config must be a MonitorConfig")
        if reference is not None and not isinstance(
            reference, (SymbolReference, OfdmSymbolReference)
        ):
            raise ValidationError(
                "reference must be a SymbolReference or OfdmSymbolReference (or None)"
            )
        self._config = config
        self._reference = reference
        # Single-carrier EVM reads every window through one kernel table.
        self._symbol_kernels = (
            SymbolKernelTable(reference, config.sample_rate, config.start_time)
            if isinstance(reference, SymbolReference)
            else None
        )
        self._detector = DriftDetector(config.detector, baseline=baseline)
        self._cumulative = StreamingAccumulator(
            config.sample_rate, segment_length=config.segment_length
        )
        self._window_pieces: list[np.ndarray] = []
        self._window_fill = 0
        self._window_index = 0
        self._samples_ingested = 0
        self._windows: list[WindowMetrics] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> MonitorConfig:
        """The session configuration."""
        return self._config

    @property
    def detector(self) -> DriftDetector:
        """The sequential drift detector fed by this monitor."""
        return self._detector

    @property
    def samples_ingested(self) -> int:
        """Total samples ingested so far."""
        return self._samples_ingested

    @property
    def windows(self) -> tuple:
        """Per-window metrics of every completed window."""
        return tuple(self._windows)

    @property
    def alarms(self) -> tuple:
        """Every drift alarm raised so far."""
        return self._detector.alarms

    def cumulative_spectrum(self) -> SpectrumEstimate:
        """Welch estimate over the *entire* stream so far (bounded memory).

        Bit-identical to batch :func:`repro.dsp.welch_psd` of the full
        concatenated record (restricted to the complete segments both see).
        """
        return self._cumulative.spectrum()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, block) -> list[DriftAlarm]:
        """Feed one block of any size; returns alarms raised by it.

        Blocks are split internally at window boundaries, so window metrics
        never depend on how the stream was blocked.
        """
        block = np.atleast_1d(np.asarray(block))
        if block.ndim != 1:
            raise ValidationError(f"blocks must be one-dimensional, got shape {block.shape}")
        config = self._config
        raised: list[DriftAlarm] = []
        while block.size:
            take = min(block.size, config.window_samples - self._window_fill)
            piece = block[:take]
            block = block[take:]
            self._cumulative.ingest(piece)
            self._window_pieces.append(np.array(piece, copy=True))
            self._window_fill += int(piece.size)
            self._samples_ingested += int(piece.size)
            if self._window_fill == config.window_samples:
                raised.extend(self._close_window())
        return raised

    def ingest_stream(self, blocks) -> list[DriftAlarm]:
        """Feed an iterable of blocks; returns every alarm raised."""
        raised: list[DriftAlarm] = []
        for block in blocks:
            raised.extend(self.ingest(block))
        return raised

    def _close_window(self) -> list[DriftAlarm]:
        config = self._config
        samples = np.concatenate(self._window_pieces)
        start_sample = self._window_index * config.window_samples
        output_power = float(np.mean(np.abs(samples) ** 2))
        spectrum = welch_psd(samples, config.sample_rate, segment_length=config.segment_length)
        acpr_worst = self._measure_acpr(spectrum)
        obw = self._measure_obw(spectrum)
        evm, evm_skipped_reason = self._measure_evm(samples, start_sample)
        window = WindowMetrics(
            index=self._window_index,
            start_sample=start_sample,
            num_samples=int(samples.size),
            output_power=output_power,
            acpr_worst_db=acpr_worst,
            occupied_bandwidth_hz=obw,
            evm_percent=evm,
            evm_skipped_reason=evm_skipped_reason,
        )
        self._windows.append(window)
        self._window_index += 1
        self._window_pieces.clear()
        self._window_fill = 0
        return self._detector.update(window.metric_values())

    def _measure_acpr(self, spectrum: SpectrumEstimate) -> float | None:
        channel = self._config.channel
        if channel is None:
            return None
        from ..bist.measurements import measure_acpr

        try:
            return float(
                measure_acpr(
                    spectrum,
                    channel_centre_hz=channel.centre_hz,
                    channel_bandwidth_hz=channel.bandwidth_hz,
                    channel_spacing_hz=channel.spacing_hz,
                )["worst_db"]
            )
        except MeasurementError:
            # e.g. a silent window with genuinely zero main-channel power —
            # skipped rather than alarmed; power drift catches dead air.
            return None

    def _measure_obw(self, spectrum: SpectrumEstimate) -> float | None:
        channel = self._config.channel
        try:
            if channel is None:
                bandwidth, _, _ = occupied_bandwidth(spectrum)
                return float(bandwidth)
            from ..bist.measurements import measure_occupied_bandwidth

            return float(
                measure_occupied_bandwidth(
                    spectrum,
                    channel_centre_hz=channel.centre_hz,
                    search_half_width_hz=channel.bandwidth_hz,
                )
            )
        except MeasurementError:
            return None

    def _measure_evm(self, samples: np.ndarray, start_sample: int) -> tuple:
        """``(evm_percent, skipped_reason)`` — exactly one of the pair is set."""
        if self._reference is None:
            return None, "no symbol reference attached"
        if not np.iscomplexobj(samples):
            return None, "EVM needs a complex-envelope stream (real passband ingested)"
        config = self._config
        if isinstance(self._reference, OfdmSymbolReference):
            # min_evm_symbols counts demodulated constellation cells; one
            # whole OFDM symbol contributes num_subcarriers of them (and the
            # grid metrics need at least two symbols regardless).
            per_symbol = self._reference.params.num_subcarriers
            min_ofdm_symbols = max(2, -(-config.min_evm_symbols // per_symbol))
            return windowed_ofdm_evm(
                samples,
                config.sample_rate,
                config.start_time + start_sample / config.sample_rate,
                self._reference,
                min_symbols=min_ofdm_symbols,
            )
        evm = windowed_evm(
            samples,
            start_sample,
            self._symbol_kernels,
            min_symbols=config.min_evm_symbols,
        )
        if evm is None:
            return None, (
                f"window demodulates fewer than {config.min_evm_symbols} clean "
                "symbols after edge guards"
            )
        return evm, None

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def report(self) -> MonitorReport:
        """Snapshot report (callable at any point; the session may continue)."""
        return MonitorReport(
            config=self._config,
            windows=tuple(self._windows),
            alarms=self._detector.alarms,
            samples_ingested=self._samples_ingested,
            segments_accumulated=self._cumulative.segments_accumulated,
            pending_samples=self._cumulative.pending_samples,
            baselines=self._detector.baselines(),
            statistics=self._detector.statistics(),
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_transmission(
        cls,
        burst,
        window_samples: int | None = None,
        segment_length: int = 256,
        detector: DriftDetectorConfig | None = None,
        channel: ChannelSpec | None = None,
    ) -> "StreamingMonitor":
        """Monitor the complex envelope of a :class:`~repro.transmitter.TransmissionResult`.

        The loopback story of the paper's BIST in streaming form: the
        transmitter's own envelope (already at a modest rate) is the
        monitored stream.  Channel geometry defaults to the burst's
        modulation — centre 0 Hz, bandwidth ``symbol_rate * (1 + rolloff)``
        (plain ``symbol_rate`` for OFDM) — and the windowed EVM reference
        (:class:`~repro.monitor.SymbolReference` for single-carrier bursts,
        :class:`~repro.monitor.OfdmSymbolReference` for OFDM) is attached
        automatically.

        Blocks still have to be fed by the caller (:meth:`ingest` /
        :meth:`ingest_stream` with :func:`iter_blocks`); this builder only
        derives the configuration.
        """
        from ..transmitter.chain import TransmissionResult

        if not isinstance(burst, TransmissionResult):
            raise ValidationError("burst must be a TransmissionResult")
        config = burst.config
        envelope = burst.output_envelope
        if window_samples is None:
            window_samples = 4 * int(segment_length)
        if channel is None:
            if config.ofdm is None:
                bandwidth = config.symbol_rate_hz * (1.0 + config.rolloff)
            else:
                bandwidth = config.symbol_rate_hz
            channel = ChannelSpec(centre_hz=0.0, bandwidth_hz=bandwidth)
        monitor_config = MonitorConfig(
            sample_rate=envelope.sample_rate,
            window_samples=int(window_samples),
            segment_length=int(segment_length),
            channel=channel,
            detector=detector if detector is not None else DriftDetectorConfig(),
            start_time=float(envelope.start_time),
        )
        if config.ofdm is None:
            reference = SymbolReference.from_transmission(burst)
        else:
            reference = OfdmSymbolReference.from_transmission(burst)
        return cls(monitor_config, reference=reference)
