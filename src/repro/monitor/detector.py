"""Sequential drift detection over per-window BIST metrics.

The one-shot :class:`~repro.store.BaselineComparator` diffs two complete
campaign runs.  A deployed transmitter instead produces an endless sequence
of measurement windows, and the question becomes sequential: *has this
metric left its baseline, and how quickly can we say so without crying wolf
on noise?*  :class:`DriftDetector` answers it with a CUSUM (or EWMA) chart
per metric, normalised by the same tolerance model the one-shot gate uses
(:meth:`~repro.store.BaselineComparator.metric_tolerance`), so an online
alarm and an offline drift-report entry speak the same units.

Alarm latency (windows from drift onset to alarm) and false-alarm rate
(alarms on stationary traffic) are the two figures of merit; both are
asserted by the seeded test suite rather than just documented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import ValidationError
from ..store.baseline import BaselineComparator, BaselineTolerances
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_choice, check_integer, check_positive

__all__ = ["MONITORED_METRICS", "DriftDetectorConfig", "DriftAlarm", "DriftDetector"]

#: Metrics the detector knows how to normalise — the numeric subset of
#: :func:`repro.store.report_metrics` a streaming monitor can measure.
MONITORED_METRICS = (
    "output_power",
    "acpr_worst_db",
    "occupied_bandwidth_hz",
    "evm_percent",
)


@dataclass(frozen=True)
class DriftDetectorConfig:
    """Configuration of the sequential drift detector.

    Attributes
    ----------
    method:
        ``"cusum"`` (one-sided cumulative sum of the excess drift score,
        default) or ``"ewma"`` (exponentially weighted moving average of the
        score).
    threshold:
        Alarm threshold on the chart statistic, in tolerance units.  For
        CUSUM this is the classic ``h``; for EWMA the level the smoothed
        score must exceed.
    warmup_windows:
        Windows used to learn the per-metric baseline (mean of the warm-up
        values, unless an explicit baseline was supplied) *and* the natural
        window-to-window noise scale.  Charting starts only after warm-up;
        with explicit baselines warm-up may be ``0`` (noise adaptation is
        then unavailable and scores are in pure tolerance units).
    tolerances:
        Tolerance model shared with :class:`~repro.store.BaselineComparator`.
    """

    method: str = "cusum"
    threshold: float = 5.0
    warmup_windows: int = 5
    tolerances: BaselineTolerances = field(default_factory=BaselineTolerances)

    #: CUSUM reference (allowance) ``k``: per-window score slack absorbed
    #: before the sum grows.  Scores are ``|value - baseline| / tolerance``,
    #: so ``1.0`` means "inside the one-shot gate's tolerance is free".
    #: Ignored by EWMA.
    drift_reference: ClassVar[float] = 1.0
    #: EWMA smoothing factor in ``(0, 1]``.  Ignored by CUSUM.
    ewma_alpha: ClassVar[float] = 0.3
    #: Scores are normalised by ``max(tolerance, noise_multiplier *
    #: warmup_std)``: the one-shot gate's tolerance is the floor, but when a
    #: metric's honest window-to-window variation exceeds it (short windows
    #: measure small sample counts), the chart widens to that measured noise
    #: so stationary traffic does not alarm.  Drift must then clear the
    #: noise, which is the correct sequential-detection trade.
    noise_multiplier: ClassVar[float] = 3.0

    def __post_init__(self) -> None:
        check_choice(self.method, "method", ("cusum", "ewma"))
        check_positive(self.threshold, "threshold")
        check_integer(self.warmup_windows, "warmup_windows", minimum=0)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        data = field_dict(self)
        data["tolerances"] = self.tolerances.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DriftDetectorConfig":
        """Rebuild a config serialized with :meth:`to_dict`.

        Unknown keys are ignored; a config archived with a chart constant
        other than the class constant raises ``ValidationError``.
        """
        kwargs = known_field_kwargs(cls, data)
        if isinstance(kwargs.get("tolerances"), dict):
            kwargs["tolerances"] = BaselineTolerances.from_dict(kwargs["tolerances"])
        return cls(**kwargs)


@dataclass(frozen=True)
class DriftAlarm:
    """One drift alarm: a metric's chart statistic crossed the threshold.

    ``window_index`` is the zero-based measurement window that triggered the
    alarm (warm-up windows included in the count, so latency against an
    injected drift onset is directly computable).
    """

    metric: str
    window_index: int
    statistic: float
    threshold: float
    baseline: float
    current: float
    score: float

    def summary(self) -> str:
        """One-line textual summary of the alarm."""
        return (
            f"window {self.window_index}: {self.metric} DRIFT "
            f"(statistic {self.statistic:.3f} >= {self.threshold:.3f}, "
            f"baseline {self.baseline:.6g}, current {self.current:.6g})"
        )

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)


class _MetricChart:
    """Per-metric sequential chart state (CUSUM or EWMA)."""

    def __init__(
        self, metric: str, config: DriftDetectorConfig, comparator: BaselineComparator
    ) -> None:
        self._metric = metric
        self._config = config
        self._comparator = comparator
        self.baseline: float | None = None
        self.scale: float | None = None
        self.statistic = 0.0
        self._preset_baseline: float | None = None
        self._warmup_values: list[float] = []

    def preset(self, baseline: float) -> None:
        """Pin an explicit baseline; warm-up (if any) still learns the scale."""
        self._preset_baseline = float(baseline)
        if self._config.warmup_windows == 0:
            self._finish_warmup()

    def _finish_warmup(self) -> None:
        values = self._warmup_values
        if self._preset_baseline is not None:
            self.baseline = self._preset_baseline
        else:
            self.baseline = sum(values) / len(values)
        tolerance = self._comparator.metric_tolerance(self._metric, self.baseline)
        spread = 0.0
        if len(values) >= 2:
            mean = sum(values) / len(values)
            spread = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
        self.scale = max(tolerance, self._config.noise_multiplier * spread)
        values.clear()

    def observe(self, value: float) -> tuple[float, float] | None:
        """Feed one value; returns ``(statistic, score)`` once charting."""
        config = self._config
        if self.scale is None:
            self._warmup_values.append(value)
            if len(self._warmup_values) >= max(1, config.warmup_windows):
                self._finish_warmup()
            return None
        score = abs(value - self.baseline) / self.scale
        if config.method == "cusum":
            self.statistic = max(0.0, self.statistic + score - config.drift_reference)
        else:
            alpha = config.ewma_alpha
            self.statistic = (1.0 - alpha) * self.statistic + alpha * score
        return self.statistic, score


class DriftDetector:
    """Run one sequential chart per monitored metric; emit :class:`DriftAlarm`s.

    Parameters
    ----------
    config:
        Chart configuration (method, threshold, warm-up, tolerances).
    baseline:
        Optional explicit per-metric baseline values (keys from
        :data:`MONITORED_METRICS`).  Metrics without an explicit baseline
        learn one from the first ``warmup_windows`` observed values.

    Notes
    -----
    The detector latches one alarm per metric per run: after a metric
    alarms, further windows keep updating its statistic but emit no
    duplicate alarms.  ``None`` metric values (e.g. EVM on an OFDM profile)
    are skipped transparently.
    """

    def __init__(
        self,
        config: DriftDetectorConfig | None = None,
        baseline: dict | None = None,
    ) -> None:
        self._config = config if config is not None else DriftDetectorConfig()
        self._charts: dict[str, _MetricChart] = {}
        self._alarmed: set[str] = set()
        self._alarms: list[DriftAlarm] = []
        self._windows_seen = 0
        baseline = dict(baseline or {})
        unknown = sorted(set(baseline) - set(MONITORED_METRICS))
        if unknown:
            raise ValidationError(
                f"unknown baseline metric(s) {unknown}; monitored metrics are "
                f"{list(MONITORED_METRICS)}"
            )
        comparator = BaselineComparator(self._config.tolerances)
        for metric in MONITORED_METRICS:
            chart = _MetricChart(metric, self._config, comparator)
            if metric in baseline:
                chart.preset(float(baseline[metric]))
            self._charts[metric] = chart

    @property
    def config(self) -> DriftDetectorConfig:
        """The active detector configuration."""
        return self._config

    @property
    def alarms(self) -> tuple:
        """Every alarm emitted so far, in window order."""
        return tuple(self._alarms)

    def baselines(self) -> dict:
        """Current per-metric baselines (``None`` while still warming up)."""
        return {metric: chart.baseline for metric, chart in self._charts.items()}

    def statistics(self) -> dict:
        """Current per-metric chart statistics."""
        return {metric: chart.statistic for metric, chart in self._charts.items()}

    def update(self, metrics: dict) -> list[DriftAlarm]:
        """Feed one window of metric values; returns alarms raised by it.

        ``metrics`` maps metric names (subset of :data:`MONITORED_METRICS`)
        to values; missing or ``None`` entries are skipped.
        """
        window_index = self._windows_seen
        self._windows_seen += 1
        raised: list[DriftAlarm] = []
        for metric, chart in self._charts.items():
            value = metrics.get(metric)
            if value is None:
                continue
            observed = chart.observe(float(value))
            if observed is None or metric in self._alarmed:
                continue
            statistic, score = observed
            if statistic >= self._config.threshold:
                alarm = DriftAlarm(
                    metric=metric,
                    window_index=window_index,
                    statistic=float(statistic),
                    threshold=float(self._config.threshold),
                    baseline=float(chart.baseline),
                    current=float(value),
                    score=float(score),
                )
                self._alarmed.add(metric)
                self._alarms.append(alarm)
                raised.append(alarm)
        return raised
