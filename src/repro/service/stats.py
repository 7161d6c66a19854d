"""Service execution metrics: queue latency, hit rates, worker throughput.

The batch layers already account for *what* a campaign computed (pass
rates, margins) and *how much* it reused (store cache counters); the
service layer adds *how the work flowed*: how long a job waited in the
queue versus executed, how much of it was served warm, how the partitions
spread over workers and how often dead workers forced retries.
:class:`ServiceStats` is carried by every
:class:`~repro.service.coordinator.ServiceExecution` and becomes the
``"service"`` section of its :class:`~repro.bist.report.CampaignSummary`,
so the queue metrics appear next to the campaign verdicts in one report.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkerStats", "ServiceStats"]


@dataclass(frozen=True)
class WorkerStats:
    """Accounting for one worker process the coordinator spawned.

    Attributes
    ----------
    worker_id:
        The coordinator-assigned worker identity (also the store shard stem
        the worker appended to).
    partitions:
        Work partitions this worker completed.
    scenarios:
        Outcomes the worker produced (executed + served from the store).
    executed:
        Scenarios the worker actually executed (fresh cache misses).
    cache_hits:
        Scenarios the worker served from the shared store (e.g. flushed by
        a predecessor that died mid-partition).
    busy_seconds:
        Sum of the worker's per-scenario wall clocks.
    """

    worker_id: str
    partitions: int = 0
    scenarios: int = 0
    executed: int = 0
    cache_hits: int = 0
    busy_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Durations are clamped at zero: a stat rebuilt from an archive
        # written by a pre-monotonic library version (wall-clock deltas can
        # go negative across clock steps) must not poison derived rates.
        object.__setattr__(self, "busy_seconds", max(0.0, float(self.busy_seconds)))

    @property
    def throughput_per_second(self) -> float:
        """Executed scenarios per busy second (0.0 when idle)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.executed / self.busy_seconds

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return {
            "worker_id": self.worker_id,
            "partitions": self.partitions,
            "scenarios": self.scenarios,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "busy_seconds": self.busy_seconds,
            "throughput_per_second": self.throughput_per_second,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerStats":
        """Rebuild worker statistics serialized with :meth:`to_dict`."""
        return cls(
            worker_id=data["worker_id"],
            partitions=data.get("partitions", 0),
            scenarios=data.get("scenarios", 0),
            executed=data.get("executed", 0),
            cache_hits=data.get("cache_hits", 0),
            busy_seconds=data.get("busy_seconds", 0.0),
        )


@dataclass(frozen=True)
class ServiceStats:
    """Flow metrics of one service job.

    Attributes
    ----------
    num_workers:
        Worker-process slots the coordinator ran with.
    num_partitions:
        Work partitions the job was split into (0 when everything was
        served from the store at planning time).
    scenarios_total:
        Scenarios in the submitted grid.
    planned_cache_hits:
        Scenarios served from the store during partition planning (never
        dispatched).
    worker_cache_hits:
        Scenarios served from the store *inside* workers — typically the
        flushed prefix of a retried partition.
    deduplicated:
        Scenarios fanned out from identical-fingerprint primaries inside
        worker partitions.
    executed:
        Scenarios that actually executed.
    retries:
        Partition re-dispatches after worker deaths or stale heartbeats.
    queue_latency_seconds:
        Submission → first dispatch (0.0 for direct coordinator runs that
        never sat in a queue).
    execution_seconds:
        Wall clock of the coordinator run (dispatch → merge).
    serial_equivalent_seconds:
        Sum of the per-scenario wall clocks — what one worker would have
        paid; ``serial_equivalent_seconds / execution_seconds`` is the
        scaling efficiency of the fan-out.
    workers:
        Per-worker accounting (:class:`WorkerStats`), in worker-id order.
    """

    num_workers: int
    num_partitions: int
    scenarios_total: int
    planned_cache_hits: int = 0
    worker_cache_hits: int = 0
    deduplicated: int = 0
    executed: int = 0
    retries: int = 0
    queue_latency_seconds: float = 0.0
    execution_seconds: float = 0.0
    serial_equivalent_seconds: float = 0.0
    workers: tuple = ()

    def __post_init__(self) -> None:
        # Same clamp as WorkerStats: durations from old wall-clock archives
        # may be negative across a clock step; derived rates must stay ≥ 0.
        for name in (
            "queue_latency_seconds",
            "execution_seconds",
            "serial_equivalent_seconds",
        ):
            object.__setattr__(self, name, max(0.0, float(getattr(self, name))))

    @property
    def cache_hits(self) -> int:
        """All store-served scenarios: planning-time plus worker-side hits."""
        return self.planned_cache_hits + self.worker_cache_hits

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of the grid served from the store (0.0 on an empty grid)."""
        if self.scenarios_total <= 0:
            return 0.0
        return self.cache_hits / self.scenarios_total

    @property
    def scaling_efficiency(self) -> float:
        """Serial-equivalent cost over wall clock (≈ effective worker count)."""
        if self.execution_seconds <= 0.0:
            return 0.0
        return self.serial_equivalent_seconds / self.execution_seconds

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return {
            "num_workers": self.num_workers,
            "num_partitions": self.num_partitions,
            "scenarios_total": self.scenarios_total,
            "planned_cache_hits": self.planned_cache_hits,
            "worker_cache_hits": self.worker_cache_hits,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "executed": self.executed,
            "retries": self.retries,
            "queue_latency_seconds": self.queue_latency_seconds,
            "execution_seconds": self.execution_seconds,
            "serial_equivalent_seconds": self.serial_equivalent_seconds,
            "warm_hit_rate": self.warm_hit_rate,
            "scaling_efficiency": self.scaling_efficiency,
            "workers": [worker.to_dict() for worker in self.workers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceStats":
        """Rebuild service statistics serialized with :meth:`to_dict`."""
        return cls(
            num_workers=data["num_workers"],
            num_partitions=data["num_partitions"],
            scenarios_total=data["scenarios_total"],
            planned_cache_hits=data.get("planned_cache_hits", 0),
            worker_cache_hits=data.get("worker_cache_hits", 0),
            deduplicated=data.get("deduplicated", 0),
            executed=data.get("executed", 0),
            retries=data.get("retries", 0),
            queue_latency_seconds=data.get("queue_latency_seconds", 0.0),
            execution_seconds=data.get("execution_seconds", 0.0),
            serial_equivalent_seconds=data.get("serial_equivalent_seconds", 0.0),
            workers=tuple(
                WorkerStats.from_dict(worker) for worker in data.get("workers", [])
            ),
        )

    def to_text(self) -> str:
        """Render the statistics as a fixed-width text block."""
        lines = [
            (
                f"service stats: {self.scenarios_total} scenario(s) over "
                f"{self.num_partitions} partition(s) / {self.num_workers} worker(s), "
                f"{self.retries} retry(ies)"
            ),
            (
                f"  cache: {self.planned_cache_hits} planned hit(s) + "
                f"{self.worker_cache_hits} worker hit(s) "
                f"({self.warm_hit_rate * 100.0:.1f}% warm), "
                f"{self.deduplicated} deduplicated, {self.executed} executed"
            ),
            (
                f"  time: {self.queue_latency_seconds:.3f} s queued, "
                f"{self.execution_seconds:.2f} s executing "
                f"({self.serial_equivalent_seconds:.2f} s serial-equivalent, "
                f"{self.scaling_efficiency:.2f}x scaling)"
            ),
        ]
        for worker in self.workers:
            lines.append(
                f"  {worker.worker_id}: {worker.scenarios} scenario(s), "
                f"{worker.executed} executed, {worker.cache_hits} cached, "
                f"{worker.busy_seconds:.2f} s busy "
                f"({worker.throughput_per_second:.2f}/s)"
            )
        return "\n".join(lines)
