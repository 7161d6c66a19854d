"""Partition planning: store consult, fingerprint-adjacent balanced splits.

The coordinator never ships a raw scenario list to workers; it plans.
Planning does three things, in order:

1. **Consult the store** — the runner's own planning step
   (:meth:`~repro.bist.runner.CampaignRunner.plan`) fingerprints every
   scenario and serves already-archived ones as ``cached=True`` outcomes
   immediately, so a resubmitted job dispatches nothing;
2. **Group fingerprint-adjacent work** — the remaining scenarios are
   bucketed by the campaign compiler's
   :meth:`~repro.bist.compiler.CampaignCompiler.group_key` (same resolved
   profile / effective configuration / burst length), and identical
   fingerprints are clustered inside each bucket, so a partition handed to
   one worker still batches under ``compile_groups`` and still collapses
   duplicates through the runner's dedup;
3. **Balance** — buckets are chopped to the per-partition target size and
   placed greedily (largest chunk first, into the lightest partition), a
   deterministic schedule for a given grid and store state.

Every partition carries the scenarios' *original grid indices*; workers run
them with ``CampaignRunner.run(..., indices=...)``, which keeps per-scenario
seed derivation — and therefore fingerprints and reports — bit-identical to
a single-host run of the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bist.compiler import CampaignCompiler
from ..bist.runner import CampaignRunner
from ..errors import ValidationError
from ..utils.validation import check_integer

__all__ = ["WorkPartition", "PartitionPlan", "plan_partitions"]


@dataclass(frozen=True)
class WorkPartition:
    """One unit of dispatchable work: scenarios plus their grid indices.

    Attributes
    ----------
    partition_id:
        Dense id in ``0..num_partitions-1`` (also the dispatch order).
    indices:
        Original positions of the scenarios in the submitted grid.
    scenarios:
        The :class:`~repro.bist.campaign.CampaignScenario` values, aligned
        with ``indices``.
    labels:
        Resolved scenario labels aligned with ``indices`` (the coordinator
        needs them to synthesize error outcomes for scenarios a failed
        partition never executed).
    fingerprints:
        Scenario fingerprints aligned with ``indices`` (``None`` for
        scenarios whose content could not be fingerprinted — they still
        execute; the worker surfaces any error as a per-scenario outcome).
    """

    partition_id: int
    indices: tuple
    scenarios: tuple
    labels: tuple
    fingerprints: tuple

    def __post_init__(self) -> None:
        if not (
            len(self.indices)
            == len(self.scenarios)
            == len(self.labels)
            == len(self.fingerprints)
        ):
            raise ValidationError(
                "partition indices/scenarios/labels/fingerprints must align"
            )
        if not self.indices:
            raise ValidationError("a work partition needs at least one scenario")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PartitionPlan:
    """Result of planning: dispatchable partitions plus store-served outcomes.

    Attributes
    ----------
    partitions:
        The balanced :class:`WorkPartition` list (may be empty when the
        whole grid was archived).
    cached:
        ``cached=True`` :class:`~repro.bist.runner.ScenarioOutcome` records
        served from the store at planning time, in grid order.
    scenarios_total:
        Size of the submitted grid.
    """

    partitions: tuple
    cached: tuple
    scenarios_total: int


def plan_partitions(
    scenarios,
    num_partitions: int,
    bist_config=None,
    converter_factory=None,
    seed_policy: str = "shared",
    store=None,
) -> PartitionPlan:
    """Split a scenario grid into balanced, fingerprint-adjacent partitions.

    Parameters mirror :class:`~repro.bist.runner.CampaignRunner`; ``store``
    (when given) is consulted so already-archived scenarios never reach a
    partition.  A converter factory that is not a declarative
    :class:`~repro.bist.campaign.ConverterSpec` raises
    :class:`~repro.errors.ConfigurationError`: such scenarios cannot be
    fingerprinted.  ``num_partitions`` is an upper bound — trailing empty
    partitions are dropped, so a four-way plan over three pending scenarios
    yields three singleton partitions.
    """
    check_integer(num_partitions, "num_partitions", minimum=1)
    # The runner's planning step derives labels, per-scenario seeds and
    # fingerprints exactly as the workers' runners will.
    cached, pending, fingerprints = CampaignRunner(
        bist_config=bist_config,
        converter_factory=converter_factory,
        seed_policy=seed_policy,
        store=store,
    ).plan(scenarios)
    pending = [(task, fingerprints.get(task.index)) for task in pending]
    return PartitionPlan(
        partitions=tuple(_balance(pending, num_partitions)),
        cached=tuple(cached),
        scenarios_total=len(cached) + len(pending),
    )


def _balance(pending, num_partitions: int) -> list[WorkPartition]:
    """Greedy balanced placement of fingerprint-adjacent chunks."""
    if not pending:
        return []
    compiler = CampaignCompiler()
    # Bucket by acquisition geometry, preserving first-seen bucket order.
    buckets: dict[object, list] = {}
    for task, fingerprint in pending:
        key = compiler.group_key(task)
        bucket_key = key if key is not None else f"ungrouped-{task.index}"
        buckets.setdefault(bucket_key, []).append((task, fingerprint))

    # Cluster identical fingerprints inside each bucket (first-seen order)
    # so duplicates land in the same partition and the worker-side dedup
    # collapses them onto one execution.  Chunks are packed from whole
    # clusters — a cluster is never split, even when it overflows the
    # per-partition target, because splitting would turn dedup hits into
    # duplicate executions on separate workers.
    target = max(1, -(-len(pending) // num_partitions))
    chunks: list[list] = []
    for bucket in buckets.values():
        clustered: dict[object, list] = {}
        for task, fingerprint in bucket:
            cluster_key = fingerprint if fingerprint is not None else f"idx-{task.index}"
            clustered.setdefault(cluster_key, []).append((task, fingerprint))
        chunk: list = []
        for cluster in clustered.values():
            if chunk and len(chunk) + len(cluster) > target:
                chunks.append(chunk)
                chunk = []
            chunk.extend(cluster)
        if chunk:
            chunks.append(chunk)

    # Largest chunk first into the lightest partition; ties break on the
    # chunk's first grid index and then the partition id, so the schedule
    # is a pure function of the grid and the store state.
    chunks.sort(key=lambda chunk: (-len(chunk), chunk[0][0].index))
    loads = [0] * num_partitions
    assigned: list[list] = [[] for _ in range(num_partitions)]
    for chunk in chunks:
        lightest = min(range(num_partitions), key=lambda slot: (loads[slot], slot))
        assigned[lightest].extend(chunk)
        loads[lightest] += len(chunk)

    partitions = []
    for members in assigned:
        if not members:
            continue
        members.sort(key=lambda entry: entry[0].index)
        partitions.append(
            WorkPartition(
                partition_id=len(partitions),
                indices=tuple(task.index for task, _ in members),
                scenarios=tuple(task.scenario for task, _ in members),
                labels=tuple(task.label for task, _ in members),
                fingerprints=tuple(fingerprint for _, fingerprint in members),
            )
        )
    return partitions
