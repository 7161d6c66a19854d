"""Fault-injection campaigns: fault × severity × profile grids at scale.

A :class:`FaultCampaign` turns a set of fault models and waveform profiles
into a full campaign scenario list — every fault point replicated
``num_repeats`` times under decorrelated measurement noise, plus a
fault-free reference population per profile — and executes it through the
existing :class:`~repro.bist.runner.CampaignRunner` (process-pool
parallelism, deterministic per-scenario seeding, per-scenario error
isolation).  The result aggregates into a
:class:`~repro.faults.coverage.FaultDictionary`, which is where detection
probabilities, coverage, test-escape and yield-loss numbers come from.

Determinism contract: scenario labels are unique and stable, the runner
derives every stochastic stream from ``bist_config.seed`` via
:func:`~repro.bist.runner.derive_scenario_seed`, so two runs with the same
seed — serial or parallel — produce identical dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..bist.campaign import CampaignScenario, ConverterSpec
from ..bist.engine import BistConfig
from ..errors import ValidationError
from ..signals.standards import WaveformProfile, get_profile
from .models import FaultModel

__all__ = ["FaultPoint", "FaultCampaign", "FaultCampaignResult", "REFERENCE_FAMILY"]

#: Family label used for the fault-free reference population.
REFERENCE_FAMILY = "reference"


@dataclass(frozen=True)
class FaultPoint:
    """One fault instance bound to one waveform profile.

    Attributes
    ----------
    label:
        Unique dictionary key, ``profile/fault-label``.
    profile_name:
        The waveform profile the fault is exercised under.
    fault:
        The (profile-specialised) fault model.
    """

    label: str
    profile_name: str
    fault: FaultModel

    def describe(self) -> dict:
        """JSON-friendly description of the point."""
        return {
            "label": self.label,
            "profile": self.profile_name,
            "fault": self.fault.describe(),
        }


class FaultCampaign:
    """Expand and execute a fault × severity × profile campaign.

    Parameters
    ----------
    profiles:
        Waveform profiles (names or objects) every fault is exercised under.
    faults:
        Iterable of :class:`~repro.faults.models.FaultModel` instances
        (build them with :func:`~repro.faults.models.fault_grid` for a
        families × severities grid).  Labels must be unique per profile.
    bist_config:
        Campaign-level engine configuration; its seed anchors every random
        stream of the campaign.
    num_repeats:
        BIST executions per fault point, each under a decorrelated noise
        realisation — the sample the per-fault detection probability is
        estimated from.
    num_reference:
        Fault-free executions per profile forming the "good unit"
        population (yield-loss / false-alarm side of the dictionary).

    Faults are injected on top of the fault-free ideal impairments and the
    paper converter (:class:`~repro.bist.campaign.ConverterSpec` defaults),
    which the reference population also runs on; every scenario uses its
    profile's default burst length.
    """

    def __init__(
        self,
        profiles,
        faults,
        bist_config: BistConfig | None = None,
        num_repeats: int = 3,
        num_reference: int = 8,
    ) -> None:
        profiles = tuple(profiles)
        if not profiles:
            raise ValidationError("a fault campaign needs at least one profile")
        resolved = []
        for profile in profiles:
            if isinstance(profile, str):
                profile = get_profile(profile)
            if not isinstance(profile, WaveformProfile):
                raise ValidationError("profiles must be WaveformProfile objects or names")
            resolved.append(profile)
        faults = tuple(faults)
        if not faults:
            raise ValidationError("a fault campaign needs at least one fault model")
        for fault in faults:
            if not isinstance(fault, FaultModel):
                raise ValidationError("all faults must be FaultModel instances")
        if not isinstance(num_repeats, int) or num_repeats < 1:
            raise ValidationError("num_repeats must be a positive integer")
        if not isinstance(num_reference, int) or num_reference < 1:
            raise ValidationError("num_reference must be a positive integer")
        self._profiles = tuple(resolved)
        self._faults = faults
        self._bist_config = bist_config if bist_config is not None else BistConfig()
        self._num_repeats = num_repeats
        self._num_reference = num_reference

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> tuple:
        """The fault points of the campaign (profiles × faults), in order."""
        points = []
        seen = set()
        for profile in self._profiles:
            for fault in self._faults:
                specialised = fault.for_profile(profile)
                label = f"{profile.name}/{specialised.label}"
                if label in seen:
                    raise ValidationError(
                        f"duplicate fault point {label!r}; fault labels must be unique "
                        "per profile (did the grid repeat a family at the same severity?)"
                    )
                seen.add(label)
                points.append(FaultPoint(label=label, profile_name=profile.name, fault=specialised))
        return tuple(points)

    def build_scenarios(self) -> tuple:
        """Expand the campaign into its full scenario tuple.

        Per profile: ``num_reference`` fault-free scenarios labelled
        ``profile/reference/r<i>``, then for every fault point
        ``num_repeats`` scenarios labelled ``point-label/r<i>``.  Labels are
        unique by construction, which is what gives every execution its own
        decorrelated seed under the runner's per-scenario policy.
        """
        scenarios = []
        for profile in self._profiles:
            reference = CampaignScenario(profile=profile, converter=ConverterSpec())
            for repeat in range(self._num_reference):
                scenarios.append(
                    replace(reference, label=f"{profile.name}/{REFERENCE_FAMILY}/r{repeat}")
                )
        for point in self.points:
            profile = next(p for p in self._profiles if p.name == point.profile_name)
            base = CampaignScenario(profile=profile, converter=ConverterSpec())
            faulty = point.fault.apply_scenario(base, label=point.label)
            for repeat in range(self._num_repeats):
                scenarios.append(replace(faulty, label=f"{point.label}/r{repeat}"))
        return tuple(scenarios)

    def __len__(self) -> int:
        return (
            len(self._profiles) * self._num_reference
            + len(self._profiles) * len(self._faults) * self._num_repeats
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, max_workers: int = 1, progress_callback=None, store=None, compile: bool = False
    ) -> "FaultCampaignResult":
        """Execute the whole campaign; errors are captured per scenario.

        ``max_workers > 1`` distributes scenarios over a process pool; the
        per-scenario seed policy guarantees the result is identical to the
        serial one.  ``store`` (a :class:`~repro.store.CampaignStore`) makes
        the run resumable: archived fault points are served as cache hits
        and fresh outcomes are flushed as they complete, so an interrupted
        population study picks up where it stopped with an identical
        dictionary.  ``compile=True`` batches fingerprint-adjacent fault
        points through the :class:`~repro.bist.compiler.CampaignCompiler`
        (bit-identical results, shared reconstruction-plan structures).
        """
        from ..bist.runner import CampaignRunner

        runner = CampaignRunner(
            bist_config=self._bist_config,
            converter_factory=ConverterSpec(),
            max_workers=max_workers,
            seed_policy="per-scenario",
            progress_callback=progress_callback,
            store=store,
        )
        execution = runner.run(self.build_scenarios(), compile=compile)
        return FaultCampaignResult(
            execution=execution,
            points=self.points,
            num_repeats=self._num_repeats,
            num_reference=self._num_reference,
        )


@dataclass(frozen=True)
class FaultCampaignResult:
    """Executed fault campaign: outcomes plus the fault-point index.

    Attributes
    ----------
    execution:
        The structured runner result (reports or captured errors, in
        submission order).
    points:
        The fault points of the campaign.
    num_repeats, num_reference:
        The replication factors the campaign ran with.
    """

    execution: object
    points: tuple
    num_repeats: int
    num_reference: int

    def dictionary(self) -> "FaultDictionary":
        """Aggregate the outcomes into a :class:`FaultDictionary`."""
        from .coverage import FaultDictionary

        return FaultDictionary.from_campaign(self)
