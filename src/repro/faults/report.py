"""Coverage reporting: detectability ranking and marginal-fault analysis.

A :class:`FaultCoverageReport` condenses a
:class:`~repro.faults.coverage.FaultDictionary` under one limit set into
the document a test-program review wants to see: every fault point ranked
from most to least detectable, the marginal points whose verdict flips with
the measurement noise, the uncovered points (test holes), the false-alarm
rate paid for the screen, and the Monte Carlo test-escape / yield-loss
numbers.  The report is a frozen value object and serialises to JSON for
archival next to the campaign artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .coverage import (
    CoverageResult,
    EscapeYieldEstimate,
    FaultDictionary,
    TestLimits,
)

__all__ = ["FaultReportEntry", "FaultCoverageReport"]


@dataclass(frozen=True)
class FaultReportEntry:
    """One ranked row of the coverage report.

    ``status`` partitions the fault points exactly as
    :meth:`FaultDictionary.coverage` does (``"covered"`` /
    ``"uncovered"`` at the detection threshold), so the report's lists
    always reconcile with its headline coverage fraction; ``marginal`` is
    the orthogonal noise-dependence flag (``0 < P(det) < 1``) and applies
    to covered and uncovered points alike.
    """

    label: str
    family: str
    severity: float
    profile_name: str
    detection_probability: float
    num_signatures: int
    status: str  # "covered" / "uncovered" (matches CoverageResult)
    marginal: bool = False

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return {
            "label": self.label,
            "family": self.family,
            "severity": self.severity,
            "profile": self.profile_name,
            "detection_probability": self.detection_probability,
            "num_signatures": self.num_signatures,
            "status": self.status,
            "marginal": self.marginal,
        }


@dataclass(frozen=True)
class FaultCoverageReport:
    """Coverage analysis of one fault dictionary under one limit set.

    Build with :meth:`from_dictionary`; entries are ranked most-detectable
    first (ties broken by label for stable output).
    """

    entries: tuple
    limits: TestLimits
    coverage_result: CoverageResult
    false_alarm_rate: float
    escape: EscapeYieldEstimate

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValidationError("a coverage report needs at least one entry")

    @classmethod
    def from_dictionary(
        cls,
        dictionary: FaultDictionary,
        limits: TestLimits | None = None,
        num_trials: int = 20000,
    ) -> "FaultCoverageReport":
        """Analyse a dictionary under a limit set.

        The same ``limits`` drive the per-fault detection probabilities, the
        coverage/threshold classification, the false-alarm rate over the
        reference population and the escape/yield Monte Carlo, so every
        number in the report describes the *same* screen.
        """
        if not isinstance(dictionary, FaultDictionary):
            raise ValidationError("dictionary must be a FaultDictionary")
        limits = limits if limits is not None else TestLimits()
        coverage = dictionary.coverage(limits)
        entries = []
        for record in dictionary.records:
            label = record.point.label
            probability = coverage.probabilities[label]
            entries.append(
                FaultReportEntry(
                    label=label,
                    family=record.point.fault.family,
                    severity=record.point.fault.severity,
                    profile_name=record.point.profile_name,
                    detection_probability=probability,
                    num_signatures=len(record.signatures),
                    status="covered" if label in coverage.covered else "uncovered",
                    marginal=label in coverage.marginal,
                )
            )
        entries.sort(key=lambda entry: (-entry.detection_probability, entry.label))
        return cls(
            entries=tuple(entries),
            limits=limits,
            coverage_result=coverage,
            false_alarm_rate=dictionary.false_alarm_rate(limits),
            escape=dictionary.monte_carlo(limits, num_trials=num_trials),
        )

    # ------------------------------------------------------------------ #
    # Convenience views
    # ------------------------------------------------------------------ #
    @property
    def coverage(self) -> float:
        """Fraction of fault points covered at the threshold."""
        return self.coverage_result.coverage

    @property
    def weighted_coverage(self) -> float:
        """Mean detection probability over all fault points."""
        return self.coverage_result.weighted_coverage

    def marginal_faults(self) -> list:
        """Entries whose detection depends on the noise realisation."""
        return [entry for entry in self.entries if entry.marginal]

    def uncovered_faults(self) -> list:
        """Entries the limit set cannot screen (test holes)."""
        return [entry for entry in self.entries if entry.status == "uncovered"]

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Render the report as a fixed-width text block."""
        lines = [
            (
                f"fault coverage: {self.coverage * 100.0:.1f}% of "
                f"{self.coverage_result.num_points} fault points at detection "
                f"threshold {self.coverage_result.detection_threshold:g} "
                f"(weighted {self.weighted_coverage * 100.0:.1f}%)"
            ),
            (
                f"false-alarm rate {self.false_alarm_rate * 100.0:.1f}%  |  "
                f"test escape {self.escape.test_escape_rate * 100.0:.2f}%  |  "
                f"yield loss {self.escape.yield_loss_rate * 100.0:.2f}%  "
                f"(prevalence {self.escape.fault_probability * 100.0:.1f}%, "
                f"{self.escape.num_trials} trials)"
            ),
        ]
        header = (
            f"{'fault point':<48} {'family':<18} {'sev':>5} {'P(det)':>7} "
            f"{'status':<10} {'marginal':<8}"
        )
        lines += [header, "-" * len(header)]
        for entry in self.entries:
            lines.append(
                f"{entry.label:<48} {entry.family:<18} {entry.severity:>5.2f} "
                f"{entry.detection_probability:>7.2f} {entry.status:<10} "
                f"{'yes' if entry.marginal else '-':<8}"
            )
        marginal = self.marginal_faults()
        if marginal:
            lines.append(
                "marginal (noise-dependent) faults: "
                + ", ".join(entry.label for entry in marginal)
            )
        uncovered = self.uncovered_faults()
        if uncovered:
            lines.append(
                "uncovered (test holes): " + ", ".join(entry.label for entry in uncovered)
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary of the whole report."""
        return {
            "coverage": self.coverage,
            "weighted_coverage": self.weighted_coverage,
            "detection_threshold": self.coverage_result.detection_threshold,
            "false_alarm_rate": self.false_alarm_rate,
            "limits": self.limits.to_dict(),
            "escape": self.escape.to_dict(),
            "entries": [entry.to_dict() for entry in self.entries],
            "marginal": [entry.label for entry in self.marginal_faults()],
            "uncovered": [entry.label for entry in self.uncovered_faults()],
        }
