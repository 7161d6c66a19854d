"""Structured results produced by the BIST engine.

The BIST is a pass/fail instrument: every run produces a
:class:`BistReport` that records the calibration outcome, the measurements,
the individual verdicts against the active waveform profile's limits and the
overall verdict.  Reports render to a compact human-readable text block for
logs and to plain dictionaries for programmatic consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import ValidationError
from .masks import MaskCheckResult
from .measurements import TxMeasurements

__all__ = [
    "Verdict",
    "CheckResult",
    "SkewCalibrationReport",
    "BistReport",
    "ProfileSummary",
    "CampaignSummary",
    "check_margin",
]


class Verdict(str, Enum):
    """Outcome of one check or of the whole BIST run."""

    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"

    @property
    def passed(self) -> bool:
        """Whether the verdict counts as passing (skipped checks do not fail)."""
        return self is not Verdict.FAIL


@dataclass(frozen=True)
class CheckResult:
    """One specification check: a measured value against a limit.

    Attributes
    ----------
    name:
        Check identifier (``"acpr"``, ``"evm"``, ``"spectral_mask"``...).
    verdict:
        PASS / FAIL / SKIPPED.
    measured:
        The measured value (units depend on the check).
    limit:
        The limit it was compared against.
    details:
        Free-form human-readable detail string.
    """

    name: str
    verdict: Verdict
    measured: float | None = None
    limit: float | None = None
    details: str = ""

    def summary(self) -> str:
        """One-line textual summary of the check."""
        measured = "n/a" if self.measured is None else f"{self.measured:.3f}"
        limit = "n/a" if self.limit is None else f"{self.limit:.3f}"
        text = f"{self.name}: {self.verdict.value.upper()} (measured {measured}, limit {limit})"
        if self.details:
            text += f" - {self.details}"
        return text

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "verdict": self.verdict.value,
            "measured": self.measured,
            "limit": self.limit,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "CheckResult":
        """Rebuild a check serialized with :meth:`to_dict`."""
        return cls(
            name=name,
            verdict=Verdict(data["verdict"]),
            measured=data.get("measured"),
            limit=data.get("limit"),
            details=data.get("details", ""),
        )


@dataclass(frozen=True)
class SkewCalibrationReport:
    """Outcome of the time-skew estimation step.

    Attributes
    ----------
    estimated_delay_seconds:
        The delay estimate ``D_hat`` the reconstruction used.
    programmed_delay_seconds:
        The delay the DCDE was programmed to (the DSP-visible nominal value).
    true_delay_seconds:
        The physically realised delay (only known in simulation; ``None``
        when the engine is driven by real captures).
    iterations:
        LMS iterations used.
    converged:
        Whether the estimator reported convergence.
    final_cost:
        Cost-function value at the estimate.
    method:
        Estimator name (``"lms"`` or ``"sine-fit"``).
    """

    estimated_delay_seconds: float
    programmed_delay_seconds: float
    true_delay_seconds: float | None
    iterations: int
    converged: bool
    final_cost: float
    method: str = "lms"

    @property
    def estimation_error_seconds(self) -> float | None:
        """``|D_hat - D|`` when the true delay is known, else ``None``."""
        if self.true_delay_seconds is None:
            return None
        return abs(self.estimated_delay_seconds - self.true_delay_seconds)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`).

        Delays are stored in seconds (the dataclass units) alongside the
        display-friendly picosecond values, so the round trip is bit-exact.
        """
        return {
            "estimated_delay_ps": self.estimated_delay_seconds * 1e12,
            "programmed_delay_ps": self.programmed_delay_seconds * 1e12,
            "true_delay_ps": (
                None if self.true_delay_seconds is None else self.true_delay_seconds * 1e12
            ),
            "estimated_delay_seconds": self.estimated_delay_seconds,
            "programmed_delay_seconds": self.programmed_delay_seconds,
            "true_delay_seconds": self.true_delay_seconds,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_cost": self.final_cost,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SkewCalibrationReport":
        """Rebuild a calibration report serialized with :meth:`to_dict`."""
        return cls(
            estimated_delay_seconds=data["estimated_delay_seconds"],
            programmed_delay_seconds=data["programmed_delay_seconds"],
            true_delay_seconds=data["true_delay_seconds"],
            iterations=data["iterations"],
            converged=data["converged"],
            final_cost=data["final_cost"],
            method=data.get("method", "lms"),
        )


@dataclass(frozen=True)
class BistReport:
    """Complete result of one BIST execution.

    Attributes
    ----------
    profile_name:
        The waveform profile the transmitter was tested under.
    calibration:
        The time-skew calibration report.
    measurements:
        The transmitter measurements.
    checks:
        The individual specification checks.
    mask_result:
        Raw spectral-mask check result (``None`` if the profile has no mask).
    """

    profile_name: str
    calibration: SkewCalibrationReport
    measurements: TxMeasurements
    checks: tuple
    mask_result: MaskCheckResult | None = None

    def __post_init__(self) -> None:
        if not self.checks:
            raise ValidationError("a BIST report needs at least one check")

    @property
    def verdict(self) -> Verdict:
        """Overall verdict: FAIL if any check fails, PASS otherwise."""
        if any(check.verdict is Verdict.FAIL for check in self.checks):
            return Verdict.FAIL
        return Verdict.PASS

    @property
    def passed(self) -> bool:
        """Whether the unit under test passed every check."""
        return self.verdict is Verdict.PASS

    def check(self, name: str) -> CheckResult:
        """Look up an individual check by name."""
        for check in self.checks:
            if check.name == name:
                return check
        raise ValidationError(f"no check named {name!r} in this report")

    def to_text(self) -> str:
        """Render the report as a human-readable multi-line string."""
        lines = [
            f"BIST report - profile {self.profile_name}: {self.verdict.value.upper()}",
            (
                "  skew calibration: D_hat = "
                f"{self.calibration.estimated_delay_seconds * 1e12:.2f} ps "
                f"({self.calibration.method}, {self.calibration.iterations} iterations, "
                f"{'converged' if self.calibration.converged else 'NOT converged'})"
            ),
        ]
        if self.calibration.estimation_error_seconds is not None:
            lines.append(
                "  skew error vs true delay: "
                f"{self.calibration.estimation_error_seconds * 1e12:.3f} ps"
            )
        for check in self.checks:
            lines.append("  " + check.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Render the report as a plain dictionary (JSON-friendly).

        The dictionary is *complete* — calibration, checks, measurements
        (including the PSD arrays) and the raw mask result — so
        :meth:`from_dict` rebuilds an identical report; campaign executions
        archive themselves through exactly this path.
        """
        return {
            "profile": self.profile_name,
            "verdict": self.verdict.value,
            "calibration": self.calibration.to_dict(),
            "checks": {check.name: check.to_dict() for check in self.checks},
            "measurements": self.measurements.to_dict(),
            "mask_result": None if self.mask_result is None else self.mask_result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BistReport":
        """Rebuild a report serialized with :meth:`to_dict`."""
        mask_data = data.get("mask_result")
        return cls(
            profile_name=data["profile"],
            calibration=SkewCalibrationReport.from_dict(data["calibration"]),
            measurements=TxMeasurements.from_dict(data["measurements"]),
            checks=tuple(
                CheckResult.from_dict(name, check) for name, check in data["checks"].items()
            ),
            mask_result=None if mask_data is None else MaskCheckResult.from_dict(mask_data),
        )


def check_margin(report: BistReport, name: str) -> float | None:
    """Pass margin of one check (positive = headroom, negative = violation).

    For limit-bounded checks (ACPR, OBW, EVM) the margin is ``limit -
    measured``; the spectral-mask check already *measures* its worst margin,
    so that value is used directly.  Skipped or absent checks yield ``None``.
    """
    try:
        check = report.check(name)
    except ValidationError:
        return None
    if check.verdict is Verdict.SKIPPED or check.measured is None:
        return None
    if name == "spectral_mask":
        return float(check.measured)
    if check.limit is None:
        return None
    return float(check.limit - check.measured)


def _stats(values: list) -> tuple:
    """``(mean, worst_min, worst_max)`` of a possibly-empty value list."""
    if not values:
        return None, None, None
    return (
        float(sum(values) / len(values)),
        float(min(values)),
        float(max(values)),
    )


@dataclass(frozen=True)
class ProfileSummary:
    """Aggregated campaign statistics for one waveform profile.

    Margins follow the convention "positive = headroom to the limit"; the
    worst (smallest) margin over the profile's scenarios is retained.
    ``None`` values mean the underlying check never ran for this profile.
    """

    profile_name: str
    num_scenarios: int
    num_passed: int
    worst_acpr_margin_db: float | None
    worst_obw_margin_hz: float | None
    worst_evm_margin_percent: float | None
    worst_mask_margin_db: float | None
    mean_skew_error_ps: float | None
    max_skew_error_ps: float | None

    @property
    def pass_rate(self) -> float:
        """Fraction of the profile's scenarios that passed."""
        return self.num_passed / self.num_scenarios


def _compiler_line(stats: dict) -> str:
    """Batching statistics of a ``compile=True`` campaign."""
    cache = stats.get("structure_cache") or {}
    return (
        f"campaign compiler: {stats.get('groups_formed', 0)} group(s), "
        f"{stats.get('scenarios_batched', 0)} batched, "
        f"{stats.get('scenarios_pooled', 0)} pooled "
        f"(structure cache: {cache.get('hits', 0)} hit(s), "
        f"{cache.get('misses', 0)} miss(es))"
    )


def _adaptive_line(stats: dict) -> str:
    """Grid-equivalent efficiency of an adaptive threshold campaign."""
    return (
        f"adaptive efficiency: {stats['scenarios_saved_vs_grid']:.1f}x fewer "
        "scenarios than the exhaustive grid"
    )


def _service_line(stats: dict) -> str:
    """Queue/worker statistics of a campaign run through the BIST service."""
    return (
        f"campaign service: {stats.get('num_workers', 0)} worker(s), "
        f"{stats.get('num_partitions', 0)} partition(s), "
        f"{stats.get('retries', 0)} retry(ies); "
        f"queue latency {stats.get('queue_latency_seconds', 0.0):.3f} s, "
        f"execution {stats.get('execution_seconds', 0.0):.2f} s; "
        f"warm-cache hit rate {stats.get('warm_hit_rate', 0.0) * 100.0:.1f}%"
    )


#: Renderers of the optional ``CampaignSummary.sections``, keyed by section
#: name, in the order their lines follow the headline and the store line.
_SECTION_RENDERERS = {
    "compiler": _compiler_line,
    "adaptive": _adaptive_line,
    "service": _service_line,
}


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics of a campaign: pass rates, margins, skew errors.

    Built from ``(label, report)`` entries (plus optional ``(label, error)``
    pairs for scenarios that raised) by :meth:`from_entries`; exposed through
    :meth:`~repro.bist.runner.CampaignExecution.summary`.
    """

    num_scenarios: int
    num_passed: int
    num_failed: int
    num_errors: int
    profiles: tuple
    errors: tuple = ()
    mean_skew_error_ps: float | None = None
    max_skew_error_ps: float | None = None
    #: Campaign-store cache counters: hits were served from the store, misses
    #: actually executed.  A campaign without a store counts every scenario
    #: as a miss (everything executed).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Scenarios whose outcome was fanned out from an identical-fingerprint
    #: primary inside the same batch (no execution, no store lookup).
    deduplicated: int = 0
    #: Subsystem payloads keyed by section name: ``"compiler"``
    #: (``CompilerStats.to_dict()`` of a ``compile=True`` run), ``"adaptive"``
    #: (the adaptive planner's ``scenarios_saved_vs_grid``) and ``"service"``
    #: (``ServiceStats.to_dict()`` of a service job).  Absent sections were
    #: not exercised.
    sections: dict = field(default_factory=dict)

    @classmethod
    def from_entries(
        cls,
        entries,
        errors=(),
        cache_hits: int = 0,
        cache_misses: int | None = None,
        deduplicated: int = 0,
        sections: dict | None = None,
    ) -> "CampaignSummary":
        """Aggregate ``(label, report)`` pairs and ``(label, error)`` pairs.

        ``sections`` maps a section name to its JSON payload; each payload
        is copied.
        """
        entries = list(entries)
        errors = tuple((str(label), str(message)) for label, message in errors)
        if not entries and not errors:
            raise ValidationError("a campaign summary needs at least one entry or error")
        by_profile: dict[str, list[BistReport]] = {}
        for _, report in entries:
            by_profile.setdefault(report.profile_name, []).append(report)

        profiles = []
        all_skew_errors: list[float] = []
        for profile_name, reports in by_profile.items():
            margins = {
                name: [
                    margin
                    for report in reports
                    if (margin := check_margin(report, name)) is not None
                ]
                for name in ("acpr", "occupied_bandwidth", "evm", "spectral_mask")
            }
            skew_errors = [
                report.calibration.estimation_error_seconds * 1e12
                for report in reports
                if report.calibration.estimation_error_seconds is not None
            ]
            all_skew_errors.extend(skew_errors)
            mean_skew, _, max_skew = _stats(skew_errors)
            profiles.append(
                ProfileSummary(
                    profile_name=profile_name,
                    num_scenarios=len(reports),
                    num_passed=sum(report.passed for report in reports),
                    worst_acpr_margin_db=_stats(margins["acpr"])[1],
                    worst_obw_margin_hz=_stats(margins["occupied_bandwidth"])[1],
                    worst_evm_margin_percent=_stats(margins["evm"])[1],
                    worst_mask_margin_db=_stats(margins["spectral_mask"])[1],
                    mean_skew_error_ps=mean_skew,
                    max_skew_error_ps=max_skew,
                )
            )
        mean_skew, _, max_skew = _stats(all_skew_errors)
        num_passed = sum(report.passed for _, report in entries)
        num_scenarios = len(entries) + len(errors)
        if cache_misses is None:
            cache_misses = num_scenarios - cache_hits - deduplicated
        return cls(
            num_scenarios=num_scenarios,
            num_passed=num_passed,
            num_failed=len(entries) - num_passed,
            num_errors=len(errors),
            profiles=tuple(profiles),
            errors=errors,
            mean_skew_error_ps=mean_skew,
            max_skew_error_ps=max_skew,
            cache_hits=int(cache_hits),
            cache_misses=int(cache_misses),
            deduplicated=int(deduplicated),
            sections={name: dict(payload) for name, payload in (sections or {}).items()},
        )

    @property
    def pass_rate(self) -> float:
        """Fraction of all scenarios (including errored ones) that passed."""
        return self.num_passed / self.num_scenarios

    def profile(self, profile_name: str) -> ProfileSummary:
        """Look up the per-profile statistics by profile name."""
        for summary in self.profiles:
            if summary.profile_name == profile_name:
                return summary
        raise ValidationError(f"no profile named {profile_name!r} in this summary")

    def to_text(self) -> str:
        """Render the summary as a fixed-width text block."""

        def fmt(value: float | None, scale: float = 1.0) -> str:
            return "n/a" if value is None else f"{value * scale:.2f}"

        lines = [
            (
                f"campaign summary: {self.num_scenarios} scenarios, "
                f"{self.num_passed} passed, {self.num_failed} failed, "
                f"{self.num_errors} errored (pass rate {self.pass_rate * 100.0:.1f}%)"
            )
        ]
        if self.cache_hits or self.deduplicated:
            dedup = f"{self.deduplicated} deduplicated, " if self.deduplicated else ""
            lines.append(
                f"campaign store: {self.cache_hits} cache hit(s), "
                f"{dedup}{self.cache_misses} executed"
            )
        for name, render in _SECTION_RENDERERS.items():
            if name in self.sections:
                lines.append(render(self.sections[name]))
        header = (
            f"{'profile':<24} {'n':>3} {'pass':>4} {'rate%':>6} "
            f"{'ACPR dB':>8} {'OBW MHz':>8} {'EVM %':>6} {'mask dB':>8} {'skew ps':>8}"
        )
        lines += [header, "-" * len(header), ]
        for profile in self.profiles:
            lines.append(
                f"{profile.profile_name:<24} {profile.num_scenarios:>3} "
                f"{profile.num_passed:>4} {profile.pass_rate * 100.0:>6.1f} "
                f"{fmt(profile.worst_acpr_margin_db):>8} "
                f"{fmt(profile.worst_obw_margin_hz, 1e-6):>8} "
                f"{fmt(profile.worst_evm_margin_percent):>6} "
                f"{fmt(profile.worst_mask_margin_db):>8} "
                f"{fmt(profile.max_skew_error_ps):>8}"
            )
        lines.append("(margins are worst-case headroom to the limit; negative = violation)")
        if self.max_skew_error_ps is not None:
            lines.append(
                f"skew estimate error: mean {self.mean_skew_error_ps:.3f} ps, "
                f"max {self.max_skew_error_ps:.3f} ps"
            )
        for label, error in self.errors:
            lines.append(f"ERROR {label}: {error}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Render the summary as a plain dictionary (JSON-friendly)."""
        return {
            "num_scenarios": self.num_scenarios,
            "num_passed": self.num_passed,
            "num_failed": self.num_failed,
            "num_errors": self.num_errors,
            "pass_rate": self.pass_rate,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "deduplicated": self.deduplicated,
            "sections": self.sections,
            "mean_skew_error_ps": self.mean_skew_error_ps,
            "max_skew_error_ps": self.max_skew_error_ps,
            "profiles": {
                profile.profile_name: {
                    "num_scenarios": profile.num_scenarios,
                    "num_passed": profile.num_passed,
                    "pass_rate": profile.pass_rate,
                    "worst_acpr_margin_db": profile.worst_acpr_margin_db,
                    "worst_obw_margin_hz": profile.worst_obw_margin_hz,
                    "worst_evm_margin_percent": profile.worst_evm_margin_percent,
                    "worst_mask_margin_db": profile.worst_mask_margin_db,
                    "mean_skew_error_ps": profile.mean_skew_error_ps,
                    "max_skew_error_ps": profile.max_skew_error_ps,
                }
                for profile in self.profiles
            },
            "errors": [{"label": label, "error": error} for label, error in self.errors],
        }
