"""Campaign compiler: fingerprint-adjacent scenarios over one structure cache.

A fault campaign is dominated by columns of *fingerprint-adjacent*
scenarios: a severity sweep of one fault family under one waveform profile
shares the effective engine configuration and therefore the acquisition
geometry, the calibration evaluation instants and the dense measurement
grids — everything but the sample values and the estimated skew.  Each
scenario builds reconstruction-plan *structures* (taper and kernel
trigonometry over its calibration and dense grids), which are exactly the
shared part.

1. :meth:`CampaignCompiler.group` partitions the runner's pending tasks into
   *groups* whose members provably share acquisition geometry (same resolved
   profile, same effective :class:`~repro.bist.engine.BistConfig` modulo
   seed, same burst length) and a heterogeneous *remainder* that falls back
   to the runner's serial/process-pool path;
2. :meth:`CampaignCompiler.execute_group` runs a group in-process, one
   scenario after another in submission order, through the runner's own
   per-scenario entry point with one shared
   :class:`~repro.sampling.reconstruction.PlanStructureCache`: the LMS cost
   plans and dense-grid structures are built once per group instead of once
   per scenario.

A compiled scenario executes exactly as a serial or pooled one does
(:func:`~repro.bist.campaign.execute_scenario`, then
:meth:`~repro.bist.engine.TransmitterBist.run`) and differs only in the
cache its plans share, so its report is bit-identical with theirs (asserted
in tier-1 tests and the compiler benchmark), a failure is captured per
scenario the same way, and compiled outcomes flow through the same
store/fingerprint machinery as pooled ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..sampling.reconstruction import PlanStructureCache
from .campaign import scenario_bist_config
from .runner import ScenarioOutcome, _execute_task, _ScenarioTask

__all__ = ["CampaignCompiler", "CompilerStats"]


@dataclass(frozen=True)
class CompilerStats:
    """Statistics of one compiled campaign run (JSON round-trippable).

    Attributes
    ----------
    groups_formed:
        Homogeneous groups (size >= 2) the compiler batched.
    scenarios_batched:
        Scenarios executed in-process over shared plan structures.
    scenarios_pooled:
        Scenarios that fell back to the serial/process-pool path
        (heterogeneous remainder and singleton groups).
    structure_cache:
        Hit/miss/eviction counters of the shared
        :class:`~repro.sampling.reconstruction.PlanStructureCache`.
    """

    groups_formed: int = 0
    scenarios_batched: int = 0
    scenarios_pooled: int = 0
    structure_cache: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return {
            "groups_formed": self.groups_formed,
            "scenarios_batched": self.scenarios_batched,
            "scenarios_pooled": self.scenarios_pooled,
            "structure_cache": dict(self.structure_cache),
        }

    def __add__(self, other: "CompilerStats") -> "CompilerStats":
        """Counters of two runs summed (the service merges its workers' stats)."""
        keys = {**self.structure_cache, **other.structure_cache}
        return CompilerStats(
            groups_formed=self.groups_formed + other.groups_formed,
            scenarios_batched=self.scenarios_batched + other.scenarios_batched,
            scenarios_pooled=self.scenarios_pooled + other.scenarios_pooled,
            structure_cache={
                key: self.structure_cache.get(key, 0) + other.structure_cache.get(key, 0)
                for key in keys
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CompilerStats":
        """Rebuild statistics serialized with :meth:`to_dict`."""
        return cls(
            groups_formed=data.get("groups_formed", 0),
            scenarios_batched=data.get("scenarios_batched", 0),
            scenarios_pooled=data.get("scenarios_pooled", 0),
            structure_cache=dict(data.get("structure_cache", {})),
        )


class CampaignCompiler:
    """Groups and executes fingerprint-adjacent scenario batches.

    One compiler instance serves one :meth:`CampaignRunner.run` call: it
    owns the shared structure cache, executes the homogeneous groups over
    it, and accumulates the :class:`CompilerStats` the runner surfaces in
    the campaign summary.
    """

    def __init__(self) -> None:
        self._structure_cache = PlanStructureCache()
        self._groups_formed = 0
        self._scenarios_batched = 0
        self._scenarios_pooled = 0

    @property
    def structure_cache(self) -> PlanStructureCache:
        """The plan-structure cache shared across this compiler's groups."""
        return self._structure_cache

    @property
    def stats(self) -> CompilerStats:
        """Statistics accumulated so far."""
        return CompilerStats(
            groups_formed=self._groups_formed,
            scenarios_batched=self._scenarios_batched,
            scenarios_pooled=self._scenarios_pooled,
            structure_cache=self._structure_cache.stats,
        )

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def group_key(self, task: _ScenarioTask) -> str | None:
        """Canonical key of the acquisition geometry a task will use.

        Two tasks share a key exactly when their engines are built from the
        same resolved profile, the same effective configuration (seed
        excluded — it only decorrelates randomness, not geometry) and the
        same burst length, which guarantees identical acquisition grids and
        calibration instants are *possible* to share.  Returns ``None`` for
        tasks that cannot be resolved (unresolvable profile, non-declarative
        converter); those join the remainder, where the execution path
        surfaces the error as a per-scenario outcome exactly as today.
        """
        from ..store.fingerprint import canonical_json, profile_dict

        try:
            profile = task.scenario.resolved_profile()
            config = scenario_bist_config(task.scenario, task.bist_config, seed=task.seed)
        except Exception:  # noqa: BLE001 - unresolvable -> pooled remainder
            return None
        config_payload = config.to_dict()
        config_payload.pop("seed", None)
        payload = {
            "profile": profile_dict(profile),
            "config": config_payload,
            "num_symbols": task.scenario.num_symbols,
        }
        return canonical_json(payload)

    def group(self, tasks) -> tuple[list[list[_ScenarioTask]], list[_ScenarioTask]]:
        """Partition tasks into batchable groups and a pooled remainder.

        Groups preserve submission order internally; only groups of two or
        more scenarios are compiled (a singleton gains nothing from
        batching and falls back with the remainder).  Updates the pooled
        counter in :attr:`stats`.
        """
        buckets: dict[str, list[_ScenarioTask]] = {}
        remainder: list[_ScenarioTask] = []
        for task in tasks:
            if not isinstance(task, _ScenarioTask):
                raise ValidationError("tasks must be runner scenario tasks")
            key = self.group_key(task)
            if key is None:
                remainder.append(task)
            else:
                buckets.setdefault(key, []).append(task)
        groups = []
        for bucket in buckets.values():
            if len(bucket) >= 2:
                groups.append(bucket)
            else:
                remainder.extend(bucket)
        remainder.sort(key=lambda task: task.index)
        self._scenarios_pooled += len(remainder)
        return groups, remainder

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute_group(self, tasks, on_outcome=None) -> list[ScenarioOutcome]:
        """Execute one homogeneous group in-process over the shared cache.

        Each task runs in the order given through the runner's
        :func:`~repro.bist.runner._execute_task` with this compiler's
        structure cache, so a failing scenario yields an error outcome for
        itself only, as in the pool.  ``on_outcome`` (when given) is invoked
        per outcome as it completes — the runner uses it for store flushes
        and progress callbacks.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValidationError("an execution group needs at least one task")
        outcomes = []
        for task in tasks:
            outcome = _execute_task(task, plan_structure_cache=self._structure_cache)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        self._groups_formed += 1
        self._scenarios_batched += len(tasks)
        return outcomes
