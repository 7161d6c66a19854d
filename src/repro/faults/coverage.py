"""Fault dictionary, detection metrics and the escape/yield Monte Carlo.

This module turns raw campaign outcomes into the numbers a production test
engineer actually asks for:

* a :class:`FaultSignature` per BIST execution — the measurement vector the
  test limits are evaluated against (EVM, worst ACPR, OBW, mask margin,
  and the deviation of the estimated inter-channel delay from the
  programmed one);
* a :class:`TestLimits` set — by default the BIST's own per-profile verdict,
  optionally tightened with explicit global bounds (including the
  skew-deviation bound that catches acquisition-side timing faults the
  calibration would otherwise silently absorb); a scenario that errored is
  always flagged (a unit that crashes the test program does not ship);
* a :class:`FaultDictionary` mapping every fault point to its signature
  population and the fault-free reference population, from which it
  computes per-fault detection probabilities, overall fault coverage,
  the false-alarm rate, and — via a seeded Monte Carlo that resamples the
  good/faulty populations against the limit set — the test-escape and
  yield-loss rates.

Every estimator is deterministic under a fixed seed, and the populations
come from the deterministic campaign runner, so serial and parallel
campaigns yield bit-identical dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bist.report import Verdict
from ..errors import ValidationError
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_integer
from .injection import REFERENCE_FAMILY, FaultCampaignResult, FaultPoint
from .models import FAULT_FAMILIES

__all__ = [
    "FaultSignature",
    "TestLimits",
    "FaultRecord",
    "CoverageResult",
    "EscapeYieldEstimate",
    "FaultDictionary",
]

#: Detection probability at which a fault point counts as covered.
DETECTION_THRESHOLD = 0.5

#: Defect prevalence the escape/yield Monte Carlo assumes.
FAULT_PROBABILITY = 0.05

#: Seed of the escape/yield Monte Carlo draws.
MONTE_CARLO_SEED = 20140324


@dataclass(frozen=True)
class FaultSignature:
    """Measurement signature of one BIST execution.

    Attributes
    ----------
    label:
        The scenario label the signature came from.
    profile_name:
        The waveform profile (``None`` when the scenario errored before
        producing a report).
    executed:
        Whether the scenario produced a report at all.
    bist_failed:
        Whether the BIST's own per-profile verdict was FAIL.
    evm_percent, acpr_worst_db, occupied_bandwidth_hz, mask_margin_db:
        The individual measurements (``None`` when skipped / unavailable).
    skew_deviation_ps:
        ``|estimated - programmed|`` inter-channel delay, in ps — the only
        DSP-visible trace of acquisition-side timing faults.
    error:
        The captured error string for scenarios that raised.
    """

    label: str
    profile_name: str | None = None
    executed: bool = True
    bist_failed: bool = False
    evm_percent: float | None = None
    acpr_worst_db: float | None = None
    occupied_bandwidth_hz: float | None = None
    mask_margin_db: float | None = None
    skew_deviation_ps: float | None = None
    error: str | None = None

    @classmethod
    def from_outcome(cls, outcome) -> "FaultSignature":
        """Extract the signature from a runner :class:`ScenarioOutcome`."""
        if outcome.report is None:
            return cls(label=outcome.label, executed=False, error=outcome.error)
        report = outcome.report
        calibration = report.calibration
        try:
            mask_margin = report.check("spectral_mask").measured
        except ValidationError:
            mask_margin = None
        return cls(
            label=outcome.label,
            profile_name=report.profile_name,
            executed=True,
            bist_failed=report.verdict is Verdict.FAIL,
            evm_percent=report.measurements.evm_percent,
            acpr_worst_db=float(report.measurements.acpr_db["worst_db"]),
            occupied_bandwidth_hz=float(report.measurements.occupied_bandwidth_hz),
            mask_margin_db=None if mask_margin is None else float(mask_margin),
            skew_deviation_ps=abs(
                calibration.estimated_delay_seconds - calibration.programmed_delay_seconds
            )
            * 1e12,
            error=None,
        )

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSignature":
        """Rebuild a signature serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


@dataclass(frozen=True)
class TestLimits:
    """The limit set a unit is screened against.

    ``use_bist_verdict`` keeps the BIST's own per-profile pass/fail checks
    (ACPR / OBW / EVM / spectral mask against the active
    :class:`~repro.signals.standards.WaveformProfile` limits) as the
    baseline screen; the explicit bounds tighten it globally.  A scenario
    that errored is always flagged.
    """

    #: Tell pytest this production class is not a test case.
    __test__ = False

    use_bist_verdict: bool = True
    max_acpr_db: float | None = None
    max_occupied_bandwidth_hz: float | None = None
    max_skew_deviation_ps: float | None = None

    def flags(self, signature: FaultSignature) -> bool:
        """Whether the limit set rejects the unit behind this signature."""
        if not isinstance(signature, FaultSignature):
            raise ValidationError("signature must be a FaultSignature")
        if not signature.executed:
            return True
        if self.use_bist_verdict and signature.bist_failed:
            return True
        if (
            self.max_acpr_db is not None
            and signature.acpr_worst_db is not None
            and signature.acpr_worst_db > self.max_acpr_db
        ):
            return True
        if (
            self.max_occupied_bandwidth_hz is not None
            and signature.occupied_bandwidth_hz is not None
            and signature.occupied_bandwidth_hz > self.max_occupied_bandwidth_hz
        ):
            return True
        if (
            self.max_skew_deviation_ps is not None
            and signature.skew_deviation_ps is not None
            and signature.skew_deviation_ps > self.max_skew_deviation_ps
        ):
            return True
        return False

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TestLimits":
        """Rebuild limits serialized with :meth:`to_dict`.

        Unknown keys are ignored.  Limits archived with an EVM or mask-margin
        bound, or with errored scenarios passed, raise ``ValidationError``:
        this version cannot apply them.
        """
        return cls(**known_field_kwargs(cls, data, fixed=_FIXED_LIMITS))


#: Limits earlier :class:`TestLimits` archives stored, at their fixed values.
_FIXED_LIMITS = {"max_evm_percent": None, "min_mask_margin_db": None, "flag_errors": True}

#: Fault parameters earlier archives stored, at their fixed values.
_FIXED_FAULT_PARAMS = {"max_q_offset": 0.0, "max_inl_lsb": 0.0, "phase_deg": 0.0}


@dataclass(frozen=True)
class FaultRecord:
    """One dictionary entry: a fault point and its signature population."""

    point: FaultPoint
    signatures: tuple

    def detection_probability(self, limits: TestLimits) -> float:
        """Fraction of the point's executions the limit set flags."""
        if not self.signatures:
            raise ValidationError(f"fault point {self.point.label!r} has no signatures")
        flagged = sum(limits.flags(signature) for signature in self.signatures)
        return flagged / len(self.signatures)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "point": self.point.describe(),
            "signatures": [signature.to_dict() for signature in self.signatures],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRecord":
        """Rebuild a record serialized with :meth:`to_dict`.

        A fault parameter that is now a constant of its family loads only at
        that constant's value.
        """
        point_data = data["point"]
        fault_data = point_data["fault"]
        fault_cls = FAULT_FAMILIES.get(fault_data["family"])
        if fault_cls is None or fault_cls.__name__ != fault_data["type"]:
            raise ValidationError(
                f"cannot rebuild fault of family {fault_data['family']!r} / type "
                f"{fault_data['type']!r}; register the family first"
            )
        point = FaultPoint(
            label=point_data["label"],
            profile_name=point_data["profile"],
            fault=fault_cls(
                **known_field_kwargs(fault_cls, fault_data["params"], fixed=_FIXED_FAULT_PARAMS)
            ),
        )
        return cls(
            point=point,
            signatures=tuple(FaultSignature.from_dict(s) for s in data["signatures"]),
        )


@dataclass(frozen=True)
class CoverageResult:
    """Fault coverage of a limit set over a dictionary.

    A fault point is *covered* when its detection probability reaches
    ``detection_threshold`` (:data:`DETECTION_THRESHOLD`); *marginal*
    detection (strictly between 0 and 1) means the verdict depends on the
    measurement-noise realisation — those points sit on the detectability
    boundary and deserve a tightened limit or a longer acquisition.
    """

    detection_threshold: float
    covered: tuple
    uncovered: tuple
    marginal: tuple
    probabilities: dict

    @property
    def num_points(self) -> int:
        """Total number of fault points considered."""
        return len(self.covered) + len(self.uncovered)

    @property
    def coverage(self) -> float:
        """Fraction of fault points covered at the threshold."""
        return len(self.covered) / self.num_points

    @property
    def weighted_coverage(self) -> float:
        """Mean detection probability over all fault points."""
        return float(np.mean([self.probabilities[label] for label in self.probabilities]))

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return {
            "detection_threshold": self.detection_threshold,
            "coverage": self.coverage,
            "weighted_coverage": self.weighted_coverage,
            "covered": list(self.covered),
            "uncovered": list(self.uncovered),
            "marginal": list(self.marginal),
            "probabilities": dict(self.probabilities),
        }


@dataclass(frozen=True)
class EscapeYieldEstimate:
    """Monte Carlo test-escape / yield-loss numbers for one limit set.

    Attributes
    ----------
    fault_probability:
        Assumed defect prevalence (probability a manufactured unit carries
        one of the dictionary's faults, uniformly over fault points):
        :data:`FAULT_PROBABILITY`.
    num_trials:
        Monte Carlo sample size.
    test_escape_rate:
        Fraction of *shipped* (test-passing) units that are actually faulty
        — the defect level seen by the customer.
    yield_loss_rate:
        Fraction of *good* units the limit set rejects — production yield
        thrown away to false alarms.
    faulty_pass_rate:
        Probability a faulty unit passes the screen (1 - effective
        coverage per unit).
    num_faulty, num_good, num_faulty_passed, num_good_failed, num_passed:
        Raw Monte Carlo counters.
    seed:
        The seed the estimate was drawn with, :data:`MONTE_CARLO_SEED`.
    """

    fault_probability: float
    num_trials: int
    test_escape_rate: float
    yield_loss_rate: float
    faulty_pass_rate: float
    num_faulty: int
    num_good: int
    num_faulty_passed: int
    num_good_failed: int
    num_passed: int
    seed: int

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)


@dataclass(frozen=True)
class FaultDictionary:
    """Fault points mapped to signatures, plus the good-unit population.

    Attributes
    ----------
    records:
        One :class:`FaultRecord` per fault point, in campaign order.
    references:
        Fault-free signatures (all profiles pooled; each signature retains
        its profile name).
    """

    records: tuple
    references: tuple

    def __post_init__(self) -> None:
        if not self.records:
            raise ValidationError("a fault dictionary needs at least one fault record")
        if not self.references:
            raise ValidationError(
                "a fault dictionary needs a fault-free reference population"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_campaign(cls, result: FaultCampaignResult) -> "FaultDictionary":
        """Aggregate an executed :class:`FaultCampaign` into a dictionary."""
        if not isinstance(result, FaultCampaignResult):
            raise ValidationError("result must be a FaultCampaignResult")
        by_label: dict[str, list[FaultSignature]] = {}
        references: list[FaultSignature] = []
        for outcome in result.execution.outcomes:
            signature = FaultSignature.from_outcome(outcome)
            base_label, _, repeat = outcome.label.rpartition("/r")
            if not repeat.isdigit():
                base_label = outcome.label
            if f"/{REFERENCE_FAMILY}" in base_label:
                references.append(signature)
            else:
                by_label.setdefault(base_label, []).append(signature)
        records = []
        for point in result.points:
            signatures = by_label.get(point.label, [])
            if not signatures:
                raise ValidationError(
                    f"campaign produced no outcomes for fault point {point.label!r}"
                )
            records.append(FaultRecord(point=point, signatures=tuple(signatures)))
        return cls(records=tuple(records), references=tuple(references))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> list[str]:
        """Fault-point labels, in campaign order."""
        return [record.point.label for record in self.records]

    def record(self, label: str) -> FaultRecord:
        """Look up one fault record by its point label."""
        for record in self.records:
            if record.point.label == label:
                return record
        raise ValidationError(f"no fault point labelled {label!r} in this dictionary")

    # ------------------------------------------------------------------ #
    # Detection analytics
    # ------------------------------------------------------------------ #
    def false_alarm_rate(self, limits: TestLimits | None = None) -> float:
        """Fraction of the fault-free population the limit set rejects."""
        limits = limits if limits is not None else TestLimits()
        flagged = sum(limits.flags(signature) for signature in self.references)
        return flagged / len(self.references)

    def coverage(self, limits: TestLimits | None = None) -> CoverageResult:
        """Fault coverage of the limit set at :data:`DETECTION_THRESHOLD`."""
        limits = limits if limits is not None else TestLimits()
        probabilities = {
            record.point.label: record.detection_probability(limits)
            for record in self.records
        }
        covered = tuple(label for label, p in probabilities.items() if p >= DETECTION_THRESHOLD)
        uncovered = tuple(label for label in probabilities if label not in covered)
        marginal = tuple(label for label, p in probabilities.items() if 0.0 < p < 1.0)
        return CoverageResult(
            detection_threshold=DETECTION_THRESHOLD,
            covered=covered,
            uncovered=uncovered,
            marginal=marginal,
            probabilities=probabilities,
        )

    # ------------------------------------------------------------------ #
    # Escape / yield Monte Carlo
    # ------------------------------------------------------------------ #
    def monte_carlo(
        self, limits: TestLimits | None = None, num_trials: int = 20000
    ) -> EscapeYieldEstimate:
        """Resample good/faulty populations against the limits.

        Each trial manufactures a unit: faulty with :data:`FAULT_PROBABILITY`
        (the fault point drawn uniformly, its signature drawn uniformly from
        that point's repeats — i.e. a fresh measurement-noise realisation),
        good otherwise (signature drawn from the reference population).  The
        unit ships when the limit set does not flag its signature.

        Fault points whose repeats are *homogeneous* under the limit set —
        never flagged (zero detected scenarios, e.g. a designed-undetectable
        family) or always flagged — are short-circuited: their trials have a
        known outcome, so no per-trial resampling of the flag grid is
        needed.  All random draws still happen up front, so the estimate is
        bit-identical to the fully-resampled one.

        Returns a :class:`EscapeYieldEstimate` drawn from
        :data:`MONTE_CARLO_SEED`, so it is deterministic.
        """
        limits = limits if limits is not None else TestLimits()
        num_trials = check_integer(num_trials, "num_trials", minimum=1)

        # Pre-evaluate the limit set over both populations once.
        record_flags = [
            np.array([limits.flags(s) for s in record.signatures], dtype=bool)
            for record in self.records
        ]
        reference_flags = np.array([limits.flags(s) for s in self.references], dtype=bool)

        rng = np.random.default_rng(MONTE_CARLO_SEED)
        faulty = rng.random(num_trials) < FAULT_PROBABILITY
        num_faulty = int(np.count_nonzero(faulty))
        num_good = num_trials - num_faulty

        # Faulty units: uniform fault point, then uniform repeat within it.
        record_choice = rng.integers(0, len(self.records), size=num_faulty)
        repeat_draw = rng.random(num_faulty)
        faulty_flagged = np.zeros(num_faulty, dtype=bool)
        for index, flags in enumerate(record_flags):
            mask = record_choice == index
            if not np.any(mask):
                continue
            if not flags.any():
                # Zero detected scenarios: every unit with this fault
                # escapes; faulty_flagged already holds False for them.
                continue
            if flags.all():
                faulty_flagged[mask] = True
                continue
            picks = (repeat_draw[mask] * flags.size).astype(int)
            faulty_flagged[mask] = flags[picks]

        # Good units: uniform draw from the reference population.
        good_picks = rng.integers(0, reference_flags.size, size=num_good)
        good_flagged = reference_flags[good_picks]

        num_faulty_passed = int(num_faulty - np.count_nonzero(faulty_flagged))
        num_good_failed = int(np.count_nonzero(good_flagged))
        num_passed = num_faulty_passed + (num_good - num_good_failed)

        test_escape_rate = num_faulty_passed / num_passed if num_passed else 0.0
        yield_loss_rate = num_good_failed / num_good if num_good else 0.0
        faulty_pass_rate = num_faulty_passed / num_faulty if num_faulty else 0.0
        return EscapeYieldEstimate(
            fault_probability=FAULT_PROBABILITY,
            num_trials=num_trials,
            test_escape_rate=float(test_escape_rate),
            yield_loss_rate=float(yield_loss_rate),
            faulty_pass_rate=float(faulty_pass_rate),
            num_faulty=num_faulty,
            num_good=num_good,
            num_faulty_passed=num_faulty_passed,
            num_good_failed=num_good_failed,
            num_passed=num_passed,
            seed=MONTE_CARLO_SEED,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "records": [record.to_dict() for record in self.records],
            "references": [signature.to_dict() for signature in self.references],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultDictionary":
        """Rebuild a dictionary serialized with :meth:`to_dict`."""
        return cls(
            records=tuple(FaultRecord.from_dict(r) for r in data["records"]),
            references=tuple(FaultSignature.from_dict(s) for s in data["references"]),
        )
