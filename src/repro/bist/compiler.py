"""Campaign compiler: cross-scenario batched execution of BIST campaigns.

A fault campaign is dominated by columns of *fingerprint-adjacent*
scenarios: a severity sweep of one fault family under one waveform profile
shares the effective engine configuration and therefore the acquisition
geometry, the calibration evaluation instants and the dense measurement
grid — everything but the sample values and the estimated skew.  Each
scenario builds reconstruction-plan *structures* (taper and kernel
trigonometry over its calibration and dense grids), which are exactly the
shared part.

The compiler exploits this the way PR 2 exploited delay batching, one level
up:

1. :meth:`CampaignCompiler.group` partitions the runner's pending tasks into
   *groups* whose members provably share acquisition geometry (same resolved
   profile, same effective :class:`~repro.bist.engine.BistConfig` modulo
   seed, same burst length) and a heterogeneous *remainder* that falls back
   transparently to the existing serial/process-pool path;
2. :meth:`CampaignCompiler.execute_group` runs a group in-process: every
   scenario's :meth:`~repro.bist.engine.TransmitterBist.prepare` half runs
   with one shared
   :class:`~repro.sampling.reconstruction.PlanStructureCache` (the LMS cost
   plans and dense-grid structures are built once per group instead of once
   per scenario), the dense measurement renders are evaluated chunk by
   chunk via :func:`~repro.sampling.reconstruction.evaluate_stacked`, and
   each scenario's :meth:`~repro.bist.engine.TransmitterBist.finish` half
   turns its row into an ordinary :class:`~repro.bist.runner.ScenarioOutcome`.

Safety nets inherited unchanged: results are bit-identical with the serial
and pooled paths (asserted in tier-1 tests and the compiler benchmark), the
``reference_evaluate`` oracle still bounds the plan kernels, and compiled
outcomes flow through the same store/fingerprint machinery as pooled ones —
archives cannot tell the difference.

Scenarios whose delay estimates land on grids of different exact lengths
(the valid-range stop depends on the LMS estimate, so the dense sample
count can differ by ±1 within a group) are sub-batched by their exact grid
bytes; rows in different sub-batches still share plan structures for the
grids that do coincide, and correctness never depends on the split.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..sampling.reconstruction import PlanStructureCache, evaluate_stacked
from .campaign import build_scenario_engine, scenario_bist_config
from .runner import ScenarioOutcome, _ScenarioTask

__all__ = ["CampaignCompiler", "CompilerStats", "GROUP_CHUNK_SCENARIOS"]

#: Scenarios whose dense renders are evaluated per chunk.  A dense plan is a
#: polyphase filter bank over the structure's shared kernel rows: it builds
#: no ``(times, taps)`` array and pins only its zero-padded records and its
#: on-grid dot products (four point-sized arrays for a two-term kernel),
#: ~0.5-0.8 MB for a 16k-24k-point grid, so a chunk of four stays within a
#: few MB beyond the structure.  The structure holds the grid's distinct
#: kernel rows and is shared by the whole group regardless of the chunking,
#: and each render is its own plan's ``evaluate``, so chunking changes no
#: result.
GROUP_CHUNK_SCENARIOS = 4


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
    owns the shared structure cache, executes the homogeneous groups in
    chunks of :data:`GROUP_CHUNK_SCENARIOS` renders (chunking never changes
    results), and accumulates the :class:`CompilerStats` the runner
    surfaces in the campaign summary.
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
        """Execute one homogeneous group with shared structures, in-process.

        Every scenario is isolated: a failure during preparation, stacked
        evaluation or finishing produces an error outcome for that scenario
        only, mirroring the pool's error-capture contract.  ``on_outcome``
        (when given) is invoked per outcome in completion order — the
        runner uses it for store flushes and progress callbacks.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValidationError("an execution group needs at least one task")
        worker = f"compiled-pid-{os.getpid()}"
        outcomes: list[ScenarioOutcome] = []
        prepared: list[dict] = []
        for task in tasks:
            start = time.perf_counter()
            try:
                engine, burst = build_scenario_engine(
                    task.scenario,
                    bist_config=task.bist_config,
                    converter_factory=task.converter_factory,
                    seed=task.seed,
                    plan_structure_cache=self._structure_cache,
                )
                stage = engine.prepare(burst)
                grid_times, grid_rate = engine.dense_measurement_grid(stage)
            except Exception as exc:  # noqa: BLE001 - per-scenario isolation
                outcome = ScenarioOutcome.from_exception(task.index, task.label, exc, start, worker)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
                continue
            prepared.append(
                {
                    "task": task,
                    "engine": engine,
                    "stage": stage,
                    "times": grid_times,
                    "rate": grid_rate,
                    "elapsed": time.perf_counter() - start,
                }
            )

        # Sub-batch by the *exact* dense grid: the valid-range stop depends
        # on each scenario's skew estimate, so grid lengths can differ by a
        # sample within a group.  Only bitwise-identical grids stack.
        sub_batches: dict[bytes, list[dict]] = {}
        for entry in prepared:
            sub_batches.setdefault(entry["times"].tobytes(), []).append(entry)

        for batch in sub_batches.values():
            for start_index in range(0, len(batch), GROUP_CHUNK_SCENARIOS):
                chunk = batch[start_index : start_index + GROUP_CHUNK_SCENARIOS]
                self._execute_chunk(chunk, worker, outcomes, on_outcome)

        self._groups_formed += 1
        self._scenarios_batched += len(tasks)
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    def _execute_chunk(self, chunk, worker, outcomes, on_outcome) -> None:
        """Stack one chunk's dense renders, then finish each scenario."""
        stack_started = time.perf_counter()
        try:
            # One dense plan per scenario; plan_for shares the expensive
            # structure through the group's PlanStructureCache.
            plans = [entry["stage"].reconstructor.plan_for(entry["times"]) for entry in chunk]
            delays = np.array([entry["stage"].estimate for entry in chunk], dtype=float)
            # The reconstructors validated their delays at construction, so
            # the stacked path skips re-validation exactly like
            # NonuniformReconstructor.evaluate does.
            rows = evaluate_stacked(plans, delays, validate=False)
        except Exception:  # noqa: BLE001 - fall back to per-scenario renders
            # A failed stack costs this chunk its shared render only: each
            # scenario then finishes with its own render, which gives the
            # same report.
            rows = None
        finally:
            plans = None
        stack_share = (time.perf_counter() - stack_started) / len(chunk)
        for position, entry in enumerate(chunk):
            task = entry["task"]
            # Charge the scenario its preparation and its share of the stack.
            start = time.perf_counter() - entry["elapsed"] - stack_share
            try:
                dense_render = None
                if rows is not None:
                    dense_render = (entry["times"], rows[position], entry["rate"])
                report = entry["engine"].finish(entry["stage"], dense_render=dense_render)
                outcome = ScenarioOutcome(
                    index=task.index,
                    label=task.label,
                    report=report,
                    duration_seconds=time.perf_counter() - start,
                    worker=worker,
                )
            except Exception as exc:  # noqa: BLE001 - per-scenario isolation
                outcome = ScenarioOutcome.from_exception(task.index, task.label, exc, start, worker)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
