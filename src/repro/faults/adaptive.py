"""Adaptive threshold-finding campaigns: bisection, PBA and importance MC.

The exhaustive fault dictionary answers "what is the detection probability
of every fault × severity × profile point" by brute force — ``num_steps ×
num_repeats`` BIST executions per family.  For the question a test engineer
actually asks — *what is the minimal severity this screen detects?* — that
grid is mostly wasted effort: detection versus severity is monotone for the
modelled families, so the minimal detectable severity is a *threshold* and
can be located with a logarithmic number of probes.

:class:`AdaptivePlanner` implements two search strategies over the severity
grid of an :class:`AdaptiveConfig`:

* ``"bisection"`` — deterministic bisection for families whose verdicts are
  stable under measurement noise.  Each probed severity accumulates BIST
  repeats in fixed-size rounds until its 95 % Wilson confidence interval
  clears the detection threshold on either side —
  the early-stopping rule — or the per-probe round budget is exhausted
  (the probe then falls back to the point estimate and is marked
  inconclusive).
* ``"probabilistic"`` — probabilistic bisection (Horstein) for noisy
  verdicts: a posterior over threshold positions is maintained, each query
  lands at the posterior median, and the verdict multiplicatively reweights
  the hypotheses with the assumed verdict reliability.  The search stops
  once one hypothesis concentrates ``pba_stop_posterior`` of the mass.

Every adaptive step is an ordinary campaign scenario: the
:class:`CampaignProbeBackend` executes probes through
:class:`~repro.bist.runner.CampaignRunner` with per-scenario seeding and an
optional :class:`~repro.store.CampaignStore`, so fingerprinting,
resume-as-cache-hit, serial==parallel bit-identity and golden-baseline
gating all apply unchanged.  The planner's trajectory is a deterministic
function of the probe verdicts, and the verdicts are deterministic under
the campaign seed — replaying an interrupted run regenerates the identical
scenario sequence and is served from the store.

The :class:`SyntheticProbeBackend` swaps the BIST for an analytic
detection-probability curve with deterministic pseudo-random verdicts; the
statistical acceptance suite uses it to verify oracle agreement and CI
coverage over many seeds at negligible cost.

:func:`importance_monte_carlo` complements the threshold search on the
escape/yield side: instead of resampling fault points uniformly (most of
which are either always or never flagged), the proposal concentrates trials
on the records whose verdicts actually vary near the :class:`TestLimits`
boundary, and Horvitz-Thompson weights keep the estimate unbiased.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ..bist.campaign import CampaignScenario, ConverterSpec
from ..bist.engine import BistConfig
from ..bist.report import CampaignSummary
from ..bist.runner import CampaignExecution, CampaignRunner
from ..errors import ValidationError
from ..signals.standards import WaveformProfile, get_profile
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_choice, check_integer
from .coverage import (
    DETECTION_THRESHOLD,
    FAULT_PROBABILITY,
    MONTE_CARLO_SEED,
    FaultDictionary,
    FaultSignature,
    TestLimits,
)
from .models import get_fault_family
from .stats import CONFIDENCE, wilson_interval

__all__ = [
    "AdaptiveConfig",
    "ProbeResult",
    "FamilyThreshold",
    "ThresholdReport",
    "AdaptiveCampaignResult",
    "ProbeBackend",
    "CampaignProbeBackend",
    "SyntheticFamily",
    "SyntheticProbeBackend",
    "AdaptivePlanner",
    "ImportanceEscapeEstimate",
    "importance_monte_carlo",
    "SEARCH_STRATEGIES",
]

#: Threshold-search strategies understood by :class:`AdaptivePlanner`.
SEARCH_STRATEGIES = ("bisection", "probabilistic")

#: Share of the importance proposal kept uniform across fault records.
PROPOSAL_FLOOR = 0.25

#: The one profile a :class:`SyntheticProbeBackend` serves.
SYNTHETIC_PROFILE = "synthetic"


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the adaptive threshold search.

    Attributes
    ----------
    num_steps:
        Size of the severity grid the threshold is located on.  The search
        cost grows like ``log2(num_steps)`` probes, the exhaustive grid like
        ``num_steps`` — larger grids therefore *increase* the adaptive
        saving while refining the threshold resolution.
    repeats_per_round:
        BIST executions per early-stopping round of a bisection probe.
    max_rounds_per_probe:
        Rounds a bisection probe may spend before falling back to its point
        estimate (the probe is then marked inconclusive).
    strategy:
        ``"bisection"`` (deterministic, early-stopped rounds) or
        ``"probabilistic"`` (Horstein posterior, single-scenario queries).

    A severity counts as detected at
    :data:`~repro.faults.coverage.DETECTION_THRESHOLD`, as in
    :meth:`FaultDictionary.coverage`, and every interval is a 95 % Wilson
    interval (:mod:`repro.faults.stats`).  The class constants fix the rest
    of the search.
    """

    num_steps: int = 16
    repeats_per_round: int = 3
    max_rounds_per_probe: int = 2
    strategy: str = "bisection"

    #: Severity span of the grid.  ``min_severity`` itself is *not* probed:
    #: it anchors the "nominal hardware, undetected by construction" end of
    #: the bracket, and the grid points are
    #: ``min + (i + 1) * (max - min) / num_steps`` for ``i < num_steps``.
    min_severity: ClassVar[float] = 0.0
    max_severity: ClassVar[float] = 1.0
    #: Assumed probability that one probabilistic-bisection query returns
    #: the wrong verdict (below 0.5, so the posterior converges).  It must
    #: cover the verdict noise near a threshold: with 40 queries it locates
    #: a family that flips ~17 % of its verdicts one step off its threshold
    #: within one step on every seed of the statistical acceptance tests.
    verdict_error_rate: ClassVar[float] = 0.3
    #: Posterior mass one hypothesis must reach to stop the probabilistic
    #: search.
    pba_stop_posterior: ClassVar[float] = 0.95
    #: Query budget of the probabilistic search per family.
    pba_max_queries: ClassVar[int] = 40

    def __post_init__(self) -> None:
        check_integer(self.num_steps, "num_steps", minimum=2)
        check_integer(self.repeats_per_round, "repeats_per_round", minimum=1)
        check_integer(self.max_rounds_per_probe, "max_rounds_per_probe", minimum=1)
        check_choice(self.strategy, "strategy", SEARCH_STRATEGIES)

    def severities(self) -> tuple:
        """The severity grid, lowest to highest (``min_severity`` excluded)."""
        span = self.max_severity - self.min_severity
        return tuple(
            self.min_severity + (index + 1) * span / self.num_steps
            for index in range(self.num_steps)
        )

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveConfig":
        """Rebuild a config serialized with :meth:`to_dict`.

        Unknown keys are ignored; keys of settings that are now fixed load
        only at the fixed value (:func:`~repro.utils.serialization.known_field_kwargs`).
        The probabilistic-search constants are checked only for that
        strategy: a bisection search never reads them.
        """
        if data.get("strategy") != "probabilistic":
            data = {key: value for key, value in data.items() if key not in _HORSTEIN_CONSTANTS}
        return cls(**known_field_kwargs(cls, data, fixed=_FIXED_SETTINGS))


#: Probabilistic-search constants of :class:`AdaptiveConfig`.
_HORSTEIN_CONSTANTS = ("verdict_error_rate", "pba_stop_posterior", "pba_max_queries")

#: Settings earlier :class:`AdaptiveConfig` archives stored, at their fixed values.
_FIXED_SETTINGS = {
    "confidence": CONFIDENCE,
    "interval_method": "wilson",
    "detection_threshold": DETECTION_THRESHOLD,
}


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProbeResult:
    """Accumulated verdict statistics of one probed severity.

    ``conclusive`` records whether the early-stopping rule fired (the CI
    cleared the detection threshold) or the decision fell back to the point
    estimate after the round budget.
    """

    severity: float
    num_detected: int
    num_trials: int
    ci_low: float
    ci_high: float
    decision: str  # "detected" / "undetected"
    conclusive: bool = True

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeResult":
        """Rebuild a probe serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


@dataclass(frozen=True)
class FamilyThreshold:
    """Threshold-search outcome for one fault family under one profile.

    Attributes
    ----------
    found:
        Whether a detectable severity exists on the grid.  ``False`` means
        even ``max_severity`` stayed below the detection threshold — the
        correct answer for designed-undetectable families such as
        ``dcde-error``.
    threshold, threshold_index:
        The minimal detectable grid severity and its grid index (``None``
        when not found).
    ci_low, ci_high:
        Severity bracket the threshold was localised to: the last severity
        concluded undetected (or ``min_severity``) and the first concluded
        detected.  ``None`` when not found.
    scenarios_spent:
        Scenarios in the search trajectory — identical whether the steps
        executed fresh or were replayed from a campaign store, so a resumed
        search reports the same numbers.
    posterior_confidence:
        Final posterior mass of the winning hypothesis (probabilistic
        strategy only).
    """

    family: str
    profile_name: str
    found: bool
    threshold: float | None
    threshold_index: int | None
    ci_low: float | None
    ci_high: float | None
    scenarios_spent: int
    grid_size: int
    strategy: str
    probes: tuple = ()
    posterior_confidence: float | None = None

    @property
    def num_probed_severities(self) -> int:
        """Distinct grid severities the search actually sampled."""
        return len(self.probes)

    @property
    def grid_equivalent_scenarios(self) -> float:
        """Scenarios an exhaustive grid would need at the same per-severity effort.

        The exhaustive dictionary must make the same statistically-confident
        detect/undetect decision at *every* grid severity; the adaptive
        search makes it at ``num_probed_severities`` of them.  Scaling the
        measured mean per-severity cost to the full grid is therefore the
        like-for-like baseline the saving is quoted against.
        """
        if not self.probes:
            return 0.0
        return self.grid_size * self.scenarios_spent / self.num_probed_severities

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        data = field_dict(self)
        data["probes"] = [probe.to_dict() for probe in self.probes]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyThreshold":
        """Rebuild a threshold serialized with :meth:`to_dict`."""
        kwargs = known_field_kwargs(cls, data)
        kwargs["probes"] = tuple(
            ProbeResult.from_dict(probe) for probe in data.get("probes", ())
        )
        return cls(**kwargs)


@dataclass(frozen=True)
class ThresholdReport:
    """Per-family thresholds plus the campaign-level efficiency accounting."""

    config: AdaptiveConfig
    thresholds: tuple

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValidationError("a threshold report needs at least one family result")

    # -- efficiency -------------------------------------------------------- #
    @property
    def scenarios_spent(self) -> int:
        """Total scenarios across every family search."""
        return sum(threshold.scenarios_spent for threshold in self.thresholds)

    @property
    def grid_equivalent_scenarios(self) -> float:
        """Total scenarios the exhaustive grids would have needed."""
        return float(
            sum(threshold.grid_equivalent_scenarios for threshold in self.thresholds)
        )

    @property
    def scenarios_saved_vs_grid(self) -> float:
        """Efficiency ratio: exhaustive-grid scenarios per adaptive scenario."""
        spent = self.scenarios_spent
        if spent == 0:
            return 1.0
        return self.grid_equivalent_scenarios / spent

    # -- rendering --------------------------------------------------------- #
    def to_text(self) -> str:
        """Render the report as a fixed-width text block."""
        lines = [
            (
                f"adaptive thresholds ({self.config.strategy}, "
                f"{self.config.num_steps}-step grid): "
                f"{self.scenarios_spent} scenarios vs "
                f"{self.grid_equivalent_scenarios:.0f} grid-equivalent "
                f"({self.scenarios_saved_vs_grid:.1f}x saved)"
            )
        ]
        header = (
            f"{'family':<18} {'profile':<24} {'threshold':>9} "
            f"{'CI':>17} {'spent':>5} {'probes':>6}"
        )
        lines += [header, "-" * len(header)]
        for threshold in self.thresholds:
            if threshold.found:
                value = f"{threshold.threshold:.4f}"
                ci = f"({threshold.ci_low:.3f}, {threshold.ci_high:.3f}]"
            else:
                value = "none"
                ci = "-"
            lines.append(
                f"{threshold.family:<18} {threshold.profile_name:<24} {value:>9} "
                f"{ci:>17} {threshold.scenarios_spent:>5} "
                f"{threshold.num_probed_severities:>6}"
            )
        not_found = [t.family for t in self.thresholds if not t.found]
        if not_found:
            lines.append(
                "no detectable severity on the grid: " + ", ".join(sorted(not_found))
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "config": self.config.to_dict(),
            "scenarios_spent": self.scenarios_spent,
            "grid_equivalent_scenarios": self.grid_equivalent_scenarios,
            "scenarios_saved_vs_grid": self.scenarios_saved_vs_grid,
            "thresholds": [threshold.to_dict() for threshold in self.thresholds],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdReport":
        """Rebuild a report serialized with :meth:`to_dict`."""
        return cls(
            config=AdaptiveConfig.from_dict(data["config"]),
            thresholds=tuple(
                FamilyThreshold.from_dict(threshold) for threshold in data["thresholds"]
            ),
        )


@dataclass(frozen=True)
class AdaptiveCampaignResult:
    """Planner output: the threshold report plus the scenario trajectory.

    ``outcomes`` is empty for synthetic backends (there are no BIST
    scenarios to archive); for campaign backends it holds every
    :class:`~repro.bist.runner.ScenarioOutcome` of the search, in execution
    order, including store cache hits.
    """

    report: ThresholdReport
    outcomes: tuple = ()

    def summary(self) -> CampaignSummary:
        """Aggregate the trajectory into a :class:`CampaignSummary`.

        The summary's ``"adaptive"`` section carries the
        ``scenarios_saved_vs_grid`` efficiency metric alongside the usual
        pass/error/cache counters.
        """
        if not self.outcomes:
            raise ValidationError(
                "this adaptive result has no scenario outcomes to summarise "
                "(synthetic probe backends do not execute campaign scenarios)"
            )
        adaptive = {"scenarios_saved_vs_grid": self.report.scenarios_saved_vs_grid}
        return CampaignExecution(outcomes=self.outcomes).summary({"adaptive": adaptive})


# --------------------------------------------------------------------------- #
# Probe backends
# --------------------------------------------------------------------------- #
class ProbeBackend:
    """Source of detection verdicts for the planner.

    A backend answers one question: *of* ``count`` *fresh executions of
    family* ``family`` *at* ``severity`` *under* ``profile_name``, *which
    were flagged by the screen?*  ``start`` is the per-severity repeat
    offset, which keeps labels unique and the random streams decorrelated
    when a severity is revisited across rounds or posterior updates.
    """

    @property
    def profile_names(self) -> tuple:
        """Profiles the backend can probe under."""
        raise NotImplementedError

    @property
    def outcomes(self) -> tuple:
        """Scenario outcomes accumulated so far (empty for synthetic backends)."""
        return ()

    def probe(
        self,
        profile_name: str,
        family: str,
        severity: float,
        count: int,
        start: int,
        budget=None,
    ) -> tuple:
        """Run ``count`` probes; returns per-execution detected flags."""
        raise NotImplementedError


class CampaignProbeBackend(ProbeBackend):
    """Probe backend executing real BIST scenarios through the runner.

    Every probe round is one :meth:`CampaignRunner.run` call over scenarios
    labelled ``{profile}/{family}-s{severity:g}/a{repeat}`` — the ``/a``
    segment keeps adaptive repeats distinct from the exhaustive campaign's
    ``/r`` labels, so both can share a store.  Round composition depends
    only on the configuration and the (deterministic) search trajectory,
    never on ``max_workers``, which preserves the runner's serial==parallel
    bit-identity and makes replayed rounds exact store cache hits.

    Parameters mirror :class:`~repro.faults.injection.FaultCampaign`;
    ``limits`` is the :class:`TestLimits` screen the verdicts are evaluated
    against.  Each family's fault is the registry model at the probed
    severity, injected into nominal impairments and the paper converter.
    """

    def __init__(
        self,
        profiles,
        bist_config: BistConfig | None = None,
        limits: TestLimits | None = None,
        num_symbols: int | None = None,
        max_workers: int = 1,
        store=None,
        progress_callback=None,
    ) -> None:
        profiles = tuple(profiles)
        if not profiles:
            raise ValidationError("a campaign probe backend needs at least one profile")
        resolved = []
        for profile in profiles:
            if isinstance(profile, str):
                profile = get_profile(profile)
            if not isinstance(profile, WaveformProfile):
                raise ValidationError("profiles must be WaveformProfile objects or names")
            resolved.append(profile)
        self._profiles = {profile.name: profile for profile in resolved}
        self._order = tuple(profile.name for profile in resolved)
        self._limits = limits if limits is not None else TestLimits()
        self._num_symbols = num_symbols
        self._outcomes: list = []
        self._runner = CampaignRunner(
            bist_config=bist_config,
            converter_factory=ConverterSpec(),
            max_workers=max_workers,
            seed_policy="per-scenario",
            progress_callback=progress_callback,
            store=store,
        )

    @property
    def profile_names(self) -> tuple:
        return self._order

    @property
    def outcomes(self) -> tuple:
        return tuple(self._outcomes)

    def probe(
        self,
        profile_name: str,
        family: str,
        severity: float,
        count: int,
        start: int,
        budget=None,
    ) -> tuple:
        count = check_integer(count, "count", minimum=1)
        start = check_integer(start, "start", minimum=0)
        try:
            profile = self._profiles[profile_name]
        except KeyError:
            raise ValidationError(
                f"unknown probe profile {profile_name!r}; "
                f"available: {sorted(self._profiles)}"
            ) from None
        fault = get_fault_family(family).from_severity(severity).for_profile(profile)
        base = CampaignScenario(
            profile=profile, converter=ConverterSpec(), num_symbols=self._num_symbols
        )
        point_label = f"{profile.name}/{fault.label}"
        faulty = fault.apply_scenario(base, label=point_label)
        scenarios = [
            replace(faulty, label=f"{point_label}/a{start + repeat}")
            for repeat in range(count)
        ]
        execution = self._runner.run(scenarios, budget=budget)
        self._outcomes.extend(execution.outcomes)
        return tuple(
            self._limits.flags(FaultSignature.from_outcome(outcome))
            for outcome in execution.outcomes
        )


@dataclass(frozen=True)
class SyntheticFamily:
    """Analytic fault family for the statistical acceptance suite.

    Detection probability follows a logistic curve centred on
    ``threshold``: exactly 0.5 at the threshold, so the true minimal
    detectable grid severity (at the detection threshold) is the
    first grid point at or above it.  Large ``steepness`` makes verdicts
    effectively deterministic; moderate values model noisy verdicts.  Set
    ``threshold`` above the grid's ``max_severity`` for a
    designed-undetectable control.
    """

    name: str
    threshold: float
    steepness: float = 120.0

    def detection_probability(self, severity: float) -> float:
        """``P(detected)`` at the given severity."""
        exponent = -self.steepness * (severity - self.threshold)
        # exp() overflows around 709; the logistic saturates long before.
        if exponent > 500.0:
            return 0.0
        if exponent < -500.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(exponent))


class SyntheticProbeBackend(ProbeBackend):
    """Probe backend drawing verdicts from analytic detection curves.

    Verdicts are deterministic pseudo-random functions of ``(seed, profile,
    family, severity, repeat)`` — stable across processes and invocations,
    like :func:`~repro.bist.runner.derive_scenario_seed` — so the planner's
    trajectory is reproducible per seed and the acceptance suite can sweep
    many seeds cheaply.  ``scenarios_spent`` counts probes; an optional
    :class:`~repro.bist.runner.ExecutionBudget` is charged per probe, which
    lets budget semantics be tested without real BIST runs.
    """

    def __init__(self, families, seed: int = 0) -> None:
        families = tuple(families)
        if not families:
            raise ValidationError("a synthetic probe backend needs at least one family")
        for family in families:
            if not isinstance(family, SyntheticFamily):
                raise ValidationError("families must be SyntheticFamily instances")
        names = [family.name for family in families]
        if len(set(names)) != len(names):
            raise ValidationError("synthetic family names must be unique")
        self._families = {family.name: family for family in families}
        self._seed = int(seed)
        self.scenarios_spent = 0

    @property
    def profile_names(self) -> tuple:
        return (SYNTHETIC_PROFILE,)

    def family(self, name: str) -> SyntheticFamily:
        """Look up one synthetic family by name."""
        try:
            return self._families[name]
        except KeyError:
            raise ValidationError(
                f"unknown synthetic family {name!r}; available: {sorted(self._families)}"
            ) from None

    def _uniform(self, family: str, severity: float, repeat: int) -> float:
        token = f"{self._seed}:{SYNTHETIC_PROFILE}:{family}:{severity:.12g}:{repeat}"
        return zlib.crc32(token.encode("utf-8")) / 2**32

    def probe(
        self,
        profile_name: str,
        family: str,
        severity: float,
        count: int,
        start: int,
        budget=None,
    ) -> tuple:
        count = check_integer(count, "count", minimum=1)
        start = check_integer(start, "start", minimum=0)
        if profile_name != SYNTHETIC_PROFILE:
            raise ValidationError(
                f"unknown probe profile {profile_name!r}; "
                f"this backend serves {SYNTHETIC_PROFILE!r}"
            )
        curve = self.family(family)
        if budget is not None:
            budget.charge(count)
        probability = curve.detection_probability(severity)
        flags = tuple(
            self._uniform(family, severity, start + repeat) < probability
            for repeat in range(count)
        )
        self.scenarios_spent += count
        return flags

    def grid_oracle(self, family: str, config: AdaptiveConfig, repeats: int = 400) -> float | None:
        """Exhaustive-grid reference threshold for the acceptance tests.

        Estimates the detection probability at every grid severity with
        ``repeats`` deterministic draws (offset past any adaptive repeats)
        and returns the lowest severity whose estimate reaches the
        detection threshold, or ``None``.
        """
        curve = self.family(family)
        for severity in config.severities():
            probability = curve.detection_probability(severity)
            detected = sum(
                self._uniform(family, severity, 10_000_000 + repeat) < probability
                for repeat in range(repeats)
            )
            if detected / repeats >= DETECTION_THRESHOLD:
                return severity
        return None


# --------------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------------- #
@dataclass
class _FamilySearchState:
    """Mutable bookkeeping of one family search (internal)."""

    grid: tuple
    #: Next repeat offset per grid index (labels stay unique across rounds
    #: and posterior revisits of the same severity).
    next_repeat: dict = field(default_factory=dict)
    #: Accumulated (detected, trials) per grid index.
    counts: dict = field(default_factory=dict)
    probe_order: list = field(default_factory=list)

    def record(self, index: int, flags) -> None:
        detected, trials = self.counts.get(index, (0, 0))
        self.counts[index] = (detected + sum(flags), trials + len(flags))
        self.next_repeat[index] = self.next_repeat.get(index, 0) + len(flags)
        if index not in self.probe_order:
            self.probe_order.append(index)

    def start(self, index: int) -> int:
        return self.next_repeat.get(index, 0)

    @property
    def scenarios_spent(self) -> int:
        return sum(trials for _, trials in self.counts.values())


class AdaptivePlanner:
    """Locate each family's minimal detectable severity adaptively.

    Parameters
    ----------
    backend:
        A :class:`ProbeBackend` — :class:`CampaignProbeBackend` for real
        BIST campaigns, :class:`SyntheticProbeBackend` for the statistical
        suite.
    config:
        The :class:`AdaptiveConfig` search parameters.
    """

    def __init__(self, backend: ProbeBackend, config: AdaptiveConfig | None = None) -> None:
        if not isinstance(backend, ProbeBackend):
            raise ValidationError("backend must be a ProbeBackend")
        self._backend = backend
        self._config = config if config is not None else AdaptiveConfig()
        if not isinstance(self._config, AdaptiveConfig):
            raise ValidationError("config must be an AdaptiveConfig")

    @property
    def config(self) -> AdaptiveConfig:
        """The search configuration."""
        return self._config

    # -- public API -------------------------------------------------------- #
    def run(self, families, budget=None) -> AdaptiveCampaignResult:
        """Search every family under every backend profile.

        An :class:`~repro.bist.runner.ExecutionBudget` bounds *fresh*
        executions: store cache hits are free, and
        :class:`~repro.errors.BudgetExhaustedError` propagates with all
        completed steps already flushed to the store, so a later run with
        the same seed and a larger budget resumes from the interruption
        point with an identical trajectory.
        """
        families = [str(family) for family in families]
        if not families:
            raise ValidationError("adaptive planning needs at least one family")
        if len(set(families)) != len(families):
            raise ValidationError("family names must be unique")
        thresholds = []
        for profile_name in self._backend.profile_names:
            for family in families:
                thresholds.append(self.find_threshold(profile_name, family, budget=budget))
        report = ThresholdReport(config=self._config, thresholds=tuple(thresholds))
        return AdaptiveCampaignResult(report=report, outcomes=self._backend.outcomes)

    def find_threshold(self, profile_name: str, family: str, budget=None) -> FamilyThreshold:
        """Search one family under one profile."""
        state = _FamilySearchState(grid=self._config.severities())
        if self._config.strategy == "bisection":
            return self._bisect(profile_name, family, state, budget)
        return self._probabilistic(profile_name, family, state, budget)

    # -- deterministic bisection ------------------------------------------- #
    def _probe_index(self, profile_name, family, state, index, budget) -> ProbeResult:
        """Early-stopped probe of one grid severity."""
        config = self._config
        severity = state.grid[index]
        conclusive = False
        for _ in range(config.max_rounds_per_probe):
            flags = self._backend.probe(
                profile_name,
                family,
                severity,
                config.repeats_per_round,
                state.start(index),
                budget=budget,
            )
            state.record(index, flags)
            detected, trials = state.counts[index]
            ci_low, ci_high = wilson_interval(detected, trials)
            if ci_low >= DETECTION_THRESHOLD:
                decision, conclusive = "detected", True
                break
            if ci_high < DETECTION_THRESHOLD:
                decision, conclusive = "undetected", True
                break
        if not conclusive:
            decision = (
                "detected" if detected / trials >= DETECTION_THRESHOLD else "undetected"
            )
        return ProbeResult(
            severity=severity,
            num_detected=detected,
            num_trials=trials,
            ci_low=ci_low,
            ci_high=ci_high,
            decision=decision,
            conclusive=conclusive,
        )

    def _bisect(self, profile_name, family, state, budget) -> FamilyThreshold:
        """Deterministic bisection assuming monotone detection vs severity.

        The lower bracket starts *below* the grid (``min_severity`` is
        nominal hardware and undetected by construction), so only the top
        endpoint needs an explicit probe: ``1 + ceil(log2(num_steps))``
        probes locate the threshold, versus ``num_steps`` grid points.
        """
        config = self._config
        probes = []
        top = config.num_steps - 1
        top_probe = self._probe_index(profile_name, family, state, top, budget)
        probes.append(top_probe)
        if top_probe.decision != "detected":
            return self._family_result(
                family, profile_name, state, probes, threshold_index=None
            )
        low, high = -1, top
        while high - low > 1:
            middle = (low + high) // 2
            probe = self._probe_index(profile_name, family, state, middle, budget)
            probes.append(probe)
            if probe.decision == "detected":
                high = middle
            else:
                low = middle
        return self._family_result(
            family, profile_name, state, probes, threshold_index=high, low_index=low
        )

    # -- probabilistic bisection (Horstein) -------------------------------- #
    def _probabilistic(self, profile_name, family, state, budget) -> FamilyThreshold:
        """Posterior-median search tolerant of noisy verdicts.

        Hypothesis ``g`` (``0 <= g <= num_steps``) states the threshold is
        grid index ``g`` (``g == num_steps``: no threshold on the grid).
        Each single-scenario query lands where the posterior CDF crosses
        0.5 and reweights the hypotheses by the verdict reliability
        ``1 - verdict_error_rate``.
        """
        config = self._config
        reliability = 1.0 - config.verdict_error_rate
        posterior = np.full(config.num_steps + 1, 1.0 / (config.num_steps + 1))
        for _ in range(config.pba_max_queries):
            if float(posterior.max()) >= config.pba_stop_posterior:
                break
            cdf = np.cumsum(posterior)
            query = int(np.searchsorted(cdf, 0.5))
            query = min(query, config.num_steps - 1)
            flags = self._backend.probe(
                profile_name,
                family,
                state.grid[query],
                1,
                state.start(query),
                budget=budget,
            )
            state.record(query, flags)
            # Hypotheses g <= query predict "detected at this severity".
            if flags[0]:
                posterior[: query + 1] *= reliability
                posterior[query + 1 :] *= 1.0 - reliability
            else:
                posterior[: query + 1] *= 1.0 - reliability
                posterior[query + 1 :] *= reliability
            posterior /= posterior.sum()
        winner = int(posterior.argmax())
        probes = self._aggregate_probes(state)
        if winner >= config.num_steps:
            return self._family_result(
                family,
                profile_name,
                state,
                probes,
                threshold_index=None,
                posterior_confidence=float(posterior.max()),
            )
        # Central credible interval over threshold positions -> severities.
        alpha = 1.0 - CONFIDENCE
        cdf = np.cumsum(posterior)
        low_index = int(np.searchsorted(cdf, alpha / 2.0)) - 1
        high_index = min(int(np.searchsorted(cdf, 1.0 - alpha / 2.0)), config.num_steps - 1)
        return self._family_result(
            family,
            profile_name,
            state,
            probes,
            threshold_index=winner,
            low_index=low_index,
            high_index=high_index,
            posterior_confidence=float(posterior.max()),
        )

    def _aggregate_probes(self, state) -> list:
        """Collapse per-severity counts into probe results (PBA path)."""
        probes = []
        for index in state.probe_order:
            detected, trials = state.counts[index]
            ci_low, ci_high = wilson_interval(detected, trials)
            probes.append(
                ProbeResult(
                    severity=state.grid[index],
                    num_detected=detected,
                    num_trials=trials,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    decision=(
                        "detected" if detected / trials >= DETECTION_THRESHOLD else "undetected"
                    ),
                    conclusive=False,
                )
            )
        return probes

    def _family_result(
        self,
        family,
        profile_name,
        state,
        probes,
        threshold_index,
        low_index: int = -1,
        high_index: int | None = None,
        posterior_confidence: float | None = None,
    ) -> FamilyThreshold:
        config = self._config
        if threshold_index is None:
            found, threshold, ci_low, ci_high = False, None, None, None
            threshold_index = None
        else:
            found = True
            threshold = state.grid[threshold_index]
            ci_low = (
                config.min_severity if low_index < 0 else state.grid[low_index]
            )
            ci_high = state.grid[
                threshold_index if high_index is None else high_index
            ]
        return FamilyThreshold(
            family=family,
            profile_name=profile_name,
            found=found,
            threshold=threshold,
            threshold_index=threshold_index,
            ci_low=ci_low,
            ci_high=ci_high,
            scenarios_spent=state.scenarios_spent,
            grid_size=config.num_steps,
            strategy=config.strategy,
            probes=tuple(probes),
            posterior_confidence=posterior_confidence,
        )


# --------------------------------------------------------------------------- #
# Importance-sampled escape / yield Monte Carlo
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ImportanceEscapeEstimate:
    """Importance-sampled test-escape / yield-loss numbers.

    Attributes
    ----------
    test_escape_rate, yield_loss_rate, faulty_pass_rate:
        Same semantics as :class:`~repro.faults.coverage.EscapeYieldEstimate`
        — the estimators differ, not the quantities.  The good-unit side is
        computed exactly from the reference population (its flags are
        deterministic given the limits), so ``yield_loss_rate`` carries no
        Monte Carlo error at all.
    standard_error:
        Estimated standard error of ``faulty_pass_rate``.
    effective_sample_size:
        Kish effective sample size of the importance weights — how many
        uniform trials the weighted sample is worth.
    proposal_floor:
        Minimum share of the proposal kept uniform across fault records
        (guards the weights against unbounded variance): :data:`PROPOSAL_FLOOR`.
    """

    fault_probability: float
    num_trials: int
    test_escape_rate: float
    yield_loss_rate: float
    faulty_pass_rate: float
    standard_error: float
    effective_sample_size: float
    proposal_floor: float
    seed: int

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ImportanceEscapeEstimate":
        """Rebuild an estimate serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


def importance_monte_carlo(
    dictionary: FaultDictionary,
    limits: TestLimits | None = None,
    num_trials: int = 20000,
) -> ImportanceEscapeEstimate:
    """Escape/yield Monte Carlo concentrated on the limit boundary.

    The uniform resampler of :meth:`FaultDictionary.monte_carlo` spends most
    trials on fault records whose verdict never varies (always or never
    flagged) — those contribute zero variance and zero information.  Here
    the proposal over fault records mixes a uniform floor with a component
    proportional to each record's verdict variance ``p̂ (1 - p̂)``, i.e. the
    records sitting *near* the :class:`TestLimits` boundary, and
    Horvitz-Thompson weights (uniform target over records) keep the
    ``faulty_pass_rate`` estimate unbiased.  The good-unit side needs no
    sampling at all: the reference flags are deterministic, so the
    yield-loss rate is exact.

    Draws from :data:`~repro.faults.coverage.MONTE_CARLO_SEED` at
    :data:`~repro.faults.coverage.FAULT_PROBABILITY`, so it is deterministic;
    when every record is homogeneous the variance component vanishes and the
    proposal degrades gracefully to uniform.
    """
    if not isinstance(dictionary, FaultDictionary):
        raise ValidationError("dictionary must be a FaultDictionary")
    limits = limits if limits is not None else TestLimits()
    num_trials = check_integer(num_trials, "num_trials", minimum=1)

    record_flags = [
        np.array([limits.flags(s) for s in record.signatures], dtype=bool)
        for record in dictionary.records
    ]
    reference_flags = np.array(
        [limits.flags(s) for s in dictionary.references], dtype=bool
    )
    num_records = len(record_flags)

    # Proposal: uniform floor + verdict-variance component (boundary records).
    detection = np.array([flags.mean() for flags in record_flags])
    variance = detection * (1.0 - detection)
    proposal = np.full(num_records, 1.0 / num_records)
    if variance.sum() > 0.0:
        proposal = (
            PROPOSAL_FLOOR * proposal + (1.0 - PROPOSAL_FLOOR) * variance / variance.sum()
        )
    proposal /= proposal.sum()

    rng = np.random.default_rng(MONTE_CARLO_SEED)
    choices = rng.choice(num_records, size=num_trials, p=proposal)
    repeat_draw = rng.random(num_trials)
    passed = np.zeros(num_trials, dtype=bool)
    for index, flags in enumerate(record_flags):
        mask = choices == index
        if not np.any(mask):
            continue
        if flags.all():
            continue  # every repeat flagged -> never passes
        if not flags.any():
            passed[mask] = True
            continue
        picks = (repeat_draw[mask] * flags.size).astype(int)
        passed[mask] = ~flags[picks]

    weights = (1.0 / num_records) / proposal[choices]
    weighted = weights * passed
    faulty_pass_rate = float(weighted.mean())
    standard_error = float(weighted.std(ddof=1) / math.sqrt(num_trials)) if num_trials > 1 else 0.0
    weight_sum = float(weights.sum())
    effective_sample_size = weight_sum**2 / float((weights**2).sum())

    yield_loss_rate = float(reference_flags.mean())
    good_pass_rate = 1.0 - yield_loss_rate
    shipped = (
        FAULT_PROBABILITY * faulty_pass_rate
        + (1.0 - FAULT_PROBABILITY) * good_pass_rate
    )
    test_escape_rate = (
        FAULT_PROBABILITY * faulty_pass_rate / shipped if shipped > 0.0 else 0.0
    )
    return ImportanceEscapeEstimate(
        fault_probability=FAULT_PROBABILITY,
        num_trials=num_trials,
        test_escape_rate=float(test_escape_rate),
        yield_loss_rate=yield_loss_rate,
        faulty_pass_rate=faulty_pass_rate,
        standard_error=standard_error,
        effective_sample_size=float(effective_sample_size),
        proposal_floor=PROPOSAL_FLOOR,
        seed=MONTE_CARLO_SEED,
    )
