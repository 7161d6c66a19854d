"""Golden-baseline regression gating for campaign executions.

A stored campaign archive becomes a *golden baseline*: the reference the
same campaign is diffed against on every subsequent run.  This is the
software equivalent of the paper's repeatable loopback measurement — the
BIST only screens drift reliably if its own reference numbers are stored
and compared under explicit tolerances.

:class:`BaselineComparator` matches scenarios by label between a baseline
and a candidate :class:`~repro.bist.runner.CampaignExecution` and diffs the
metrics a production gate cares about:

* output power,
* worst ACPR,
* occupied bandwidth,
* EVM,
* spectral-mask margin,
* the skew estimate (ps),
* the OFDM per-subcarrier spectral flatness (when measured),
* and pass/fail verdict flips.

Each metric has its own tolerance (:class:`BaselineTolerances`); anything
outside tolerance — plus scenarios that appeared, disappeared, or started
erroring — lands in a machine-readable :class:`DriftReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..bist.report import BistReport
from ..bist.runner import CampaignExecution, ScenarioOutcome
from ..errors import ValidationError
from ..utils.serialization import field_dict, known_field_kwargs

__all__ = [
    "BaselineTolerances",
    "MetricDrift",
    "DriftReport",
    "BaselineComparator",
    "report_metrics",
]


@dataclass(frozen=True)
class BaselineTolerances:
    """Per-metric absolute tolerances of the regression gate.

    The defaults absorb cross-platform floating-point jitter (BLAS kernels,
    FFT libraries, compiler flags) while still catching real behavioural
    drift; same-machine re-runs with the same seed are bit-identical, so
    any same-machine drift is a genuine regression.
    """

    output_power_rel: float = 1.0e-3
    acpr_db: float = 0.5
    occupied_bandwidth_hz: float = 2.0e5
    evm_percent: float = 0.25
    mask_margin_db: float = 0.5
    skew_estimate_ps: float = 1.0
    spectral_flatness_db: float = 0.5

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not value >= 0.0:
                raise ValidationError(f"{spec.name} must be non-negative, got {value!r}")

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineTolerances":
        """Rebuild tolerances serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


@dataclass(frozen=True)
class MetricDrift:
    """One comparison entry: a metric of one scenario against the baseline.

    ``kind`` is ``"metric"`` for numeric comparisons, ``"verdict"`` for
    pass/fail flips, and ``"scenario"`` for structural drift (a scenario
    missing from the candidate, new in the candidate, or newly erroring).
    ``within`` reports whether the entry is inside tolerance; structural
    entries and verdict flips are never within tolerance.
    """

    label: str
    metric: str
    kind: str
    baseline: float | str | None
    current: float | str | None
    delta: float | None
    tolerance: float | None
    within: bool

    def summary(self) -> str:
        """One-line textual summary of the entry."""
        status = "ok" if self.within else "DRIFT"
        if self.kind == "metric":
            return (
                f"{self.label} {self.metric}: {status} "
                f"(baseline {self.baseline}, current {self.current}, "
                f"delta {self.delta}, tolerance {self.tolerance})"
            )
        return f"{self.label} {self.metric}: {status} ({self.baseline} -> {self.current})"

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)


@dataclass(frozen=True)
class DriftReport:
    """Machine-readable diff of a candidate campaign against a baseline."""

    entries: tuple
    tolerances: BaselineTolerances = field(default_factory=BaselineTolerances)

    @property
    def drifted(self) -> tuple:
        """The entries outside tolerance."""
        return tuple(entry for entry in self.entries if not entry.within)

    @property
    def passed(self) -> bool:
        """Whether every compared metric stayed inside tolerance."""
        return not self.drifted

    @property
    def num_compared(self) -> int:
        """Total number of comparison entries."""
        return len(self.entries)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (the CI-consumable drift report)."""
        return {
            "passed": self.passed,
            "num_compared": self.num_compared,
            "num_drifted": len(self.drifted),
            "tolerances": self.tolerances.to_dict(),
            "drifted": [entry.to_dict() for entry in self.drifted],
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def to_text(self) -> str:
        """Render the report as a human-readable text block."""
        lines = [
            f"baseline comparison: {self.num_compared} checks, "
            f"{len(self.drifted)} drifted -> {'PASS' if self.passed else 'FAIL'}"
        ]
        for entry in self.drifted:
            lines.append("  " + entry.summary())
        return "\n".join(lines)


def report_metrics(report: BistReport) -> dict:
    """The gated metric values of one report (``None`` = not measured).

    This is the shared metric vocabulary of the regression gate: the
    one-shot :class:`BaselineComparator` diff and the continuous
    :class:`repro.monitor.DriftDetector` score the same keys, so a metric
    that drifts online is directly comparable to the same metric drifting
    between stored campaign runs.
    """
    try:
        mask_margin = report.check("spectral_mask").measured
    except ValidationError:
        mask_margin = None
    return {
        "output_power": float(report.measurements.output_power),
        "acpr_worst_db": float(report.measurements.acpr_db["worst_db"]),
        "occupied_bandwidth_hz": float(report.measurements.occupied_bandwidth_hz),
        "evm_percent": (
            None
            if report.measurements.evm_percent is None
            else float(report.measurements.evm_percent)
        ),
        "mask_margin_db": None if mask_margin is None else float(mask_margin),
        "skew_estimate_ps": float(report.calibration.estimated_delay_seconds * 1e12),
        "spectral_flatness_db": (
            None
            if report.measurements.spectral_flatness_db is None
            else float(report.measurements.spectral_flatness_db)
        ),
    }


class BaselineComparator:
    """Diff campaign executions against a stored golden baseline.

    Parameters
    ----------
    tolerances:
        Per-metric tolerances (defaults to :class:`BaselineTolerances`).
    """

    def __init__(self, tolerances: BaselineTolerances | None = None) -> None:
        self._tolerances = tolerances if tolerances is not None else BaselineTolerances()

    @property
    def tolerances(self) -> BaselineTolerances:
        """The active tolerance set."""
        return self._tolerances

    def metric_tolerance(self, metric: str, baseline_value: float) -> float:
        """Absolute tolerance of ``metric`` around ``baseline_value``.

        ``output_power`` uses a relative tolerance (scaled by the baseline
        magnitude); every other metric of :func:`report_metrics` maps to an
        absolute field of :class:`BaselineTolerances`.  Public because the
        streaming :class:`repro.monitor.DriftDetector` normalises its drift
        scores with exactly this tolerance model.
        """
        if metric == "output_power":
            return self._tolerances.output_power_rel * max(abs(baseline_value), 1e-12)
        return getattr(
            self._tolerances,
            {
                "acpr_worst_db": "acpr_db",
                "occupied_bandwidth_hz": "occupied_bandwidth_hz",
                "evm_percent": "evm_percent",
                "mask_margin_db": "mask_margin_db",
                "skew_estimate_ps": "skew_estimate_ps",
                "spectral_flatness_db": "spectral_flatness_db",
            }[metric],
        )

    def _compare_reports(
        self, label: str, baseline: BistReport, current: BistReport
    ) -> list[MetricDrift]:
        entries = []
        baseline_metrics = report_metrics(baseline)
        current_metrics = report_metrics(current)
        for metric, baseline_value in baseline_metrics.items():
            current_value = current_metrics[metric]
            if baseline_value is None and current_value is None:
                continue
            if baseline_value is None or current_value is None:
                # A metric that appeared or vanished is structural drift.
                entries.append(
                    MetricDrift(
                        label=label,
                        metric=metric,
                        kind="scenario",
                        baseline=baseline_value,
                        current=current_value,
                        delta=None,
                        tolerance=None,
                        within=False,
                    )
                )
                continue
            tolerance = self.metric_tolerance(metric, baseline_value)
            delta = current_value - baseline_value
            entries.append(
                MetricDrift(
                    label=label,
                    metric=metric,
                    kind="metric",
                    baseline=baseline_value,
                    current=current_value,
                    delta=delta,
                    tolerance=tolerance,
                    within=abs(delta) <= tolerance,
                )
            )
        entries.append(
            MetricDrift(
                label=label,
                metric="verdict",
                kind="verdict",
                baseline=baseline.verdict.value,
                current=current.verdict.value,
                delta=None,
                tolerance=None,
                within=baseline.verdict is current.verdict,
            )
        )
        return entries

    def compare(
        self, baseline: CampaignExecution, candidate: CampaignExecution
    ) -> DriftReport:
        """Diff a candidate execution against the golden baseline.

        Scenarios are matched by label; labels present on only one side and
        scenarios whose error status changed are reported as structural
        drift entries (kind ``"scenario"``).
        """
        for name, value in (("baseline", baseline), ("candidate", candidate)):
            if not isinstance(value, CampaignExecution):
                raise ValidationError(f"{name} must be a CampaignExecution")
        baseline_by_label = self._outcomes_by_label(baseline, "baseline")
        candidate_by_label = self._outcomes_by_label(candidate, "candidate")
        entries: list[MetricDrift] = []
        for label, baseline_outcome in baseline_by_label.items():
            candidate_outcome = candidate_by_label.get(label)
            if candidate_outcome is None:
                entries.append(self._structural(label, "present", "missing"))
                continue
            if baseline_outcome.ok != candidate_outcome.ok:
                entries.append(
                    self._structural(
                        label,
                        "ok" if baseline_outcome.ok else f"error: {baseline_outcome.error}",
                        "ok" if candidate_outcome.ok else f"error: {candidate_outcome.error}",
                    )
                )
                continue
            if not baseline_outcome.ok:
                continue
            entries.extend(
                self._compare_reports(label, baseline_outcome.report, candidate_outcome.report)
            )
        for label in candidate_by_label:
            if label not in baseline_by_label:
                entries.append(self._structural(label, "missing", "present"))
        return DriftReport(entries=tuple(entries), tolerances=self._tolerances)

    @staticmethod
    def _outcomes_by_label(execution: CampaignExecution, name: str) -> dict:
        by_label: dict[str, ScenarioOutcome] = {}
        for outcome in execution.outcomes:
            if outcome.label in by_label:
                raise ValidationError(
                    f"{name} execution has duplicate scenario label {outcome.label!r}; "
                    "baseline comparison matches scenarios by label, so labels must "
                    "be unique"
                )
            by_label[outcome.label] = outcome
        return by_label

    @staticmethod
    def _structural(label: str, baseline: str, current: str) -> MetricDrift:
        return MetricDrift(
            label=label,
            metric="scenario",
            kind="scenario",
            baseline=baseline,
            current=current,
            delta=None,
            tolerance=None,
            within=False,
        )
