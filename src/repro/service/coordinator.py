"""The service coordinator: plan, dispatch, supervise, merge.

One :meth:`Coordinator.run` call is one job.  The coordinator plans the
grid into balanced partitions (:mod:`repro.service.partition`), spawns one
OS process per dispatched partition (at most ``num_workers`` concurrently,
each appending to its own store shard), and supervises them through
per-worker message queues:

* **liveness** — workers heartbeat every ``heartbeat_interval`` seconds; a
  worker that dies, reports a partition failure or goes silent past
  ``heartbeat_timeout`` is terminated and its partition is **re-queued**
  with exponential backoff (``retry_backoff_seconds * 2**(retries-1)``), up
  to ``max_retries`` times;
* **convergence** — retried partitions recover for free: everything the
  dead worker flushed before dying is served from the shared store as
  worker-side cache hits, so the retry executes only the genuinely missing
  scenarios and the merged result is bit-identical to an uninterrupted run;
* **budget** — an :class:`~repro.bist.runner.ExecutionBudget` is charged at
  dispatch for exactly the scenarios not previously charged, so a retry
  never double-charges and store-served scenarios are free;
* **graceful drain** — :meth:`Coordinator.request_drain` stops new
  dispatches, lets in-flight partitions finish, and reports undispatched
  scenarios as explicit ``drained`` error outcomes.

The merged :class:`ServiceExecution` presents outcomes in grid order with
per-job :class:`~repro.service.stats.ServiceStats`, and its summary carries
those stats as the ``"service"`` section of
:class:`~repro.bist.report.CampaignSummary`.

Why one queue *per worker* rather than one shared queue: a worker killed
mid-``put`` (the chaos path CI exercises) can die holding the queue's write
lock or leave a torn pickle in the pipe; with a private queue the damage is
confined to the dead worker's channel and every other worker keeps
streaming.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, replace

from ..bist.compiler import CompilerStats
from ..bist.engine import BistConfig
from ..bist.report import CampaignSummary
from ..bist.runner import CampaignExecution, ExecutionBudget, ScenarioOutcome
from ..errors import BudgetExhaustedError, ValidationError
from ..store import CampaignStore
from ..utils.validation import check_integer
from .partition import plan_partitions
from .stats import ServiceStats, WorkerStats
from .worker import DEFAULT_HEARTBEAT_INTERVAL, WorkerSettings, run_partition_worker

__all__ = ["Coordinator", "ServiceExecution", "with_queue_latency"]

#: Seconds a dead process may lag its terminal message before the
#: coordinator declares the partition orphaned (the queue feeder thread can
#: outlive the process by a beat and deliver buffered messages after death).
_DEATH_GRACE_SECONDS = 1.0

#: Idle supervision poll (seconds) when no messages arrived in a pass.
_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class ServiceExecution:
    """A merged service run: campaign outcomes plus service flow metrics."""

    execution: CampaignExecution
    stats: ServiceStats

    def summary(self) -> CampaignSummary:
        """Campaign summary with a ``"service"`` section of the flow metrics."""
        return self.execution.summary({"service": self.stats.to_dict()})


def with_queue_latency(execution: ServiceExecution, latency_seconds: float) -> ServiceExecution:
    """A copy of a service execution with the queue latency filled in.

    The coordinator cannot know how long a job waited before dispatch; the
    job queue stamps it here when the job leaves the executor.
    """
    stats = replace(execution.stats, queue_latency_seconds=float(latency_seconds))
    return ServiceExecution(execution=execution.execution, stats=stats)


class _ActiveWorker:
    """Book-keeping for one live worker process."""

    def __init__(self, worker_id, spawn_ordinal, process, partition, results_queue, retries) -> None:
        self.worker_id = worker_id
        self.spawn_ordinal = spawn_ordinal
        self.process = process
        self.partition = partition
        self.results_queue = results_queue
        self.retries = retries
        self.last_beat = time.monotonic()
        self.done = False
        self.failed_error: str | None = None
        self.dead_since: float | None = None
        self.outcomes_seen = 0


class _PendingPartition:
    """A partition waiting for dispatch (possibly behind a retry backoff)."""

    def __init__(self, partition, retries: int = 0, ready_at: float = 0.0) -> None:
        self.partition = partition
        self.retries = retries
        self.ready_at = ready_at


class Coordinator:
    """Partition a campaign across worker processes and merge the shards.

    Parameters
    ----------
    store_root:
        The shared store directory; workers append shards named after their
        worker ids next to whatever is already archived there.
    num_workers:
        Maximum concurrently live worker processes.
    partitions_per_worker:
        Planned partitions per worker slot (>1 trades dispatch overhead for
        finer-grained retries and better balance on heterogeneous grids).
    bist_config / converter_factory / seed_policy / compile_groups:
        Forwarded to each worker's :class:`~repro.bist.runner.CampaignRunner`
        (and to partition planning, so fingerprints agree).
    heartbeat_interval / heartbeat_timeout:
        Worker beat period and the silence after which a worker is presumed
        hung, terminated, and its partition re-queued.
    max_retries:
        Re-dispatches allowed per partition before it is marked failed and
        its unexecuted scenarios surface as error outcomes.
    retry_backoff_seconds:
        Base of the exponential re-dispatch backoff.
    progress_callback:
        Optional ``callable(ScenarioOutcome)`` invoked for planning-time
        cache hits and for each outcome streamed back by workers.
    chaos_kill_worker:
        Test hook: 0-based spawn ordinal of a worker to SIGKILL right after
        its first streamed outcome — the deterministic "worker dies
        mid-partition" fault used by the acceptance tests and CI.
    """

    def __init__(
        self,
        store_root,
        num_workers: int = 4,
        partitions_per_worker: int = 1,
        bist_config=None,
        converter_factory=None,
        seed_policy: str = "shared",
        compile_groups: bool = False,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.25,
        progress_callback=None,
        chaos_kill_worker: int | None = None,
    ) -> None:
        self._store_root = str(store_root)
        self._num_workers = check_integer(num_workers, "num_workers", minimum=1)
        self._partitions_per_worker = check_integer(
            partitions_per_worker, "partitions_per_worker", minimum=1
        )
        self._bist_config = bist_config if bist_config is not None else BistConfig()
        self._converter_factory = converter_factory
        self._seed_policy = seed_policy
        self._compile_groups = bool(compile_groups)
        if heartbeat_interval <= 0.0 or heartbeat_timeout <= 0.0:
            raise ValidationError("heartbeat interval and timeout must be positive")
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._max_retries = check_integer(max_retries, "max_retries", minimum=0)
        if retry_backoff_seconds < 0.0:
            raise ValidationError("retry_backoff_seconds must be non-negative")
        self._retry_backoff = float(retry_backoff_seconds)
        self._progress_callback = progress_callback
        self._chaos_kill_worker = chaos_kill_worker
        self._drain_requested = False

    @classmethod
    def for_spec(cls, spec, store_root, **options) -> "Coordinator":
        """A coordinator configured from a :class:`CampaignSpec`'s knobs."""
        return cls(
            store_root,
            bist_config=spec.bist_config,
            seed_policy=spec.seed_policy,
            compile_groups=spec.compile_groups,
            **options,
        )

    @property
    def store_root(self) -> str:
        """The shared store directory workers shard into."""
        return self._store_root

    @property
    def num_workers(self) -> int:
        """The concurrent worker-process cap."""
        return self._num_workers

    def request_drain(self) -> None:
        """Stop dispatching new partitions; in-flight work completes.

        Safe to call from another thread (the job queue's shutdown path);
        undispatched scenarios surface as ``drained`` error outcomes.
        """
        self._drain_requested = True

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #
    def run(self, scenarios, budget: ExecutionBudget | None = None) -> ServiceExecution:
        """Execute a grid through worker processes; merge to grid order.

        Raises :class:`~repro.errors.BudgetExhaustedError` (after letting
        in-flight partitions finish and flush) when the budget cannot cover
        a partition about to dispatch; everything already executed is in
        the store, so a re-run resumes for free.
        """
        if budget is not None and not isinstance(budget, ExecutionBudget):
            raise ValidationError("budget must be an ExecutionBudget")
        started_wall = time.perf_counter()
        self._drain_requested = False
        store = CampaignStore(self._store_root, shard="coordinator")
        plan = plan_partitions(
            scenarios,
            num_partitions=self._num_workers * self._partitions_per_worker,
            bist_config=self._bist_config,
            converter_factory=self._converter_factory,
            seed_policy=self._seed_policy,
            store=store,
        )
        outcomes: dict[int, ScenarioOutcome] = {}
        for outcome in plan.cached:
            outcomes[outcome.index] = outcome
            self._notify(outcome)

        pending = [_PendingPartition(partition) for partition in plan.partitions]
        in_flight: dict[int, _ActiveWorker] = {}
        worker_counters: dict[str, dict] = {}
        done_payloads: list[dict] = []
        failed: list[tuple] = []  # (partition, retries, error)
        drained: list = []
        charged: set = set()
        spawned = 0
        budget_error: BudgetExhaustedError | None = None
        context = multiprocessing.get_context()

        while pending or in_flight:
            if (self._drain_requested or budget_error is not None) and pending:
                drained.extend(entry.partition for entry in pending)
                pending = []
            try:
                spawned = self._dispatch(
                    pending, in_flight, worker_counters, budget, charged, spawned, context
                )
            except BudgetExhaustedError as exc:
                budget_error = exc
                continue
            progressed = self._drain_messages(
                in_flight, outcomes, worker_counters, done_payloads
            )
            self._reap(in_flight, pending, failed)
            if not progressed and (pending or in_flight):
                time.sleep(min(_POLL_SECONDS, self._heartbeat_interval / 4.0))

        execution = self._assemble(outcomes, failed, drained, done_payloads)
        stats = self._build_stats(
            plan,
            worker_counters,
            done_payloads,
            failed,
            execution,
            execution_seconds=time.perf_counter() - started_wall,
        )
        if budget_error is not None:
            raise budget_error
        return ServiceExecution(execution=execution, stats=stats)

    # ------------------------------------------------------------------ #
    # Supervision internals
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, pending, in_flight, worker_counters, budget, charged, spawned, context
    ) -> int:
        """Start workers for ready partitions while slots are free.

        Raises :class:`BudgetExhaustedError` when the next partition cannot
        be afforded; the run loop catches it, drains what is in flight, and
        re-raises after assembly so completed work is already in the store.
        """
        now = time.monotonic()
        while pending and len(in_flight) < self._num_workers:
            ready = [entry for entry in pending if entry.ready_at <= now]
            if not ready:
                break
            entry = ready[0]
            if budget is not None:
                self._charge(budget, entry.partition, charged)
            pending.remove(entry)
            worker_id = f"worker-{spawned:03d}"
            results_queue = context.Queue()
            settings = WorkerSettings(
                store_root=self._store_root,
                bist_config=self._bist_config,
                converter_factory=self._converter_factory,
                seed_policy=self._seed_policy,
                compile_groups=self._compile_groups,
                heartbeat_interval=self._heartbeat_interval,
            )
            process = context.Process(
                target=run_partition_worker,
                args=(worker_id, entry.partition, settings, results_queue),
                daemon=True,
            )
            process.start()
            in_flight[entry.partition.partition_id] = _ActiveWorker(
                worker_id, spawned, process, entry.partition, results_queue, entry.retries
            )
            worker_counters[worker_id] = {
                "partitions": 0,
                "scenarios": 0,
                "executed": 0,
                "cache_hits": 0,
                "busy_seconds": 0.0,
            }
            spawned += 1
        return spawned

    def _charge(self, budget, partition, charged) -> None:
        """Charge the budget for this partition's not-yet-charged scenarios.

        Keys are scenario fingerprints (falling back to grid indices for
        unfingerprintable scenarios), so duplicate-fingerprint clusters cost
        one execution and a retried partition costs nothing new.
        """
        keys = {
            fingerprint if fingerprint is not None else f"idx-{index}"
            for index, fingerprint in zip(partition.indices, partition.fingerprints)
        }
        fresh = keys - charged
        if fresh:
            budget.charge(len(fresh))
            charged.update(fresh)

    def _drain_messages(self, in_flight, outcomes, worker_counters, done_payloads) -> bool:
        """Pump every active worker's queue; returns whether anything arrived."""
        progressed = False
        for active in list(in_flight.values()):
            while True:
                try:
                    message = active.results_queue.get_nowait()
                except queue_module.Empty:
                    break
                except (EOFError, OSError):
                    # A killed worker can tear its pipe mid-message; the
                    # reaper re-queues the partition, nothing to salvage.
                    break
                progressed = True
                active.last_beat = time.monotonic()
                kind = message[0]
                if kind == "outcome":
                    outcome = ScenarioOutcome.from_dict(message[3])
                    self._record_outcome(outcome, active, outcomes, worker_counters)
                elif kind == "partition_done":
                    active.done = True
                    done_payloads.append({**message[3], "_retries": active.retries})
                    worker_counters[active.worker_id]["partitions"] += 1
                elif kind == "partition_failed":
                    active.failed_error = message[3]
        return progressed

    def _record_outcome(self, outcome, active, outcomes, worker_counters) -> None:
        """First-received-wins merge of one streamed outcome + accounting."""
        counters = worker_counters[active.worker_id]
        counters["scenarios"] += 1
        counters["busy_seconds"] += outcome.duration_seconds
        if outcome.cached:
            counters["cache_hits"] += 1
        elif not outcome.deduplicated:
            counters["executed"] += 1
        active.outcomes_seen += 1
        if outcome.index not in outcomes:
            outcomes[outcome.index] = outcome
            self._notify(outcome)
        if (
            self._chaos_kill_worker is not None
            and active.spawn_ordinal == self._chaos_kill_worker
            and active.outcomes_seen == 1
            and active.process.is_alive()
        ):
            # Deterministic mid-partition worker death for the acceptance
            # tests: SIGKILL right after the first flushed outcome.
            active.process.kill()

    def _reap(self, in_flight, pending, failed) -> None:
        """Retire finished workers; re-queue or fail orphaned partitions."""
        now = time.monotonic()
        for partition_id, active in list(in_flight.items()):
            if active.done:
                if not active.process.is_alive():
                    active.process.join(timeout=1.0)
                    active.results_queue.close()
                    del in_flight[partition_id]
                continue
            alive = active.process.is_alive()
            stale = (now - active.last_beat) > self._heartbeat_timeout
            if alive and not stale and active.failed_error is None:
                continue
            if alive:
                active.process.terminate()
                active.process.join(timeout=2.0)
                if active.process.is_alive():
                    active.process.kill()
                    active.process.join(timeout=2.0)
                if active.process.is_alive():
                    continue  # unkillable (uninterruptible sleep); retry next pass
            # Dead without partition_done: give the queue feeder a grace
            # period to deliver anything flushed right before death, then
            # declare the partition orphaned.
            if active.failed_error is None:
                if active.dead_since is None:
                    active.dead_since = now
                    continue
                if (now - active.dead_since) < _DEATH_GRACE_SECONDS:
                    continue
            error = active.failed_error or (
                f"worker {active.worker_id} died (exit code "
                f"{active.process.exitcode}) before finishing partition {partition_id}"
            )
            active.results_queue.close()
            del in_flight[partition_id]
            retries = active.retries + 1
            if retries > self._max_retries:
                failed.append((active.partition, active.retries, error))
            else:
                backoff = self._retry_backoff * (2.0 ** (retries - 1))
                pending.append(
                    _PendingPartition(active.partition, retries=retries, ready_at=now + backoff)
                )

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def _assemble(self, outcomes, failed, drained, done_payloads) -> CampaignExecution:
        """Merge outcomes to grid order, synthesizing the never-executed."""
        for partition, _, error in failed:
            first_line = error.splitlines()[0] if error else "worker died"
            for index, label in zip(partition.indices, partition.labels):
                if index not in outcomes:
                    outcomes[index] = ScenarioOutcome(
                        index=index,
                        label=label,
                        error=(
                            f"ServiceRetriesExhausted: partition {partition.partition_id} "
                            f"failed after {self._max_retries} retry(ies) ({first_line})"
                        ),
                        worker="coordinator",
                    )
        for partition in drained:
            for index, label in zip(partition.indices, partition.labels):
                if index not in outcomes:
                    outcomes[index] = ScenarioOutcome(
                        index=index,
                        label=label,
                        error=(
                            f"ServiceDrained: partition {partition.partition_id} "
                            "was not dispatched before shutdown"
                        ),
                        worker="coordinator",
                    )
        compiled = [
            CompilerStats.from_dict(payload["compiler_stats"])
            for payload in done_payloads
            if payload["compiler_stats"] is not None
        ]
        return CampaignExecution(
            outcomes=tuple(outcomes[index] for index in sorted(outcomes)),
            compiler_stats=sum(compiled, CompilerStats()) if compiled else None,
        )

    def _build_stats(
        self,
        plan,
        worker_counters,
        done_payloads,
        failed,
        execution,
        execution_seconds: float,
    ) -> ServiceStats:
        workers = tuple(
            WorkerStats(
                worker_id=worker_id,
                partitions=counters["partitions"],
                scenarios=counters["scenarios"],
                executed=counters["executed"],
                cache_hits=counters["cache_hits"],
                busy_seconds=counters["busy_seconds"],
            )
            for worker_id, counters in sorted(worker_counters.items())
        )
        # Re-dispatches: what completed partitions report, plus the
        # max_retries each permanently-failed partition consumed.
        retries = sum(payload["_retries"] for payload in done_payloads)
        retries += len(failed) * self._max_retries
        return ServiceStats(
            num_workers=self._num_workers,
            num_partitions=len(plan.partitions),
            scenarios_total=plan.scenarios_total,
            planned_cache_hits=len(plan.cached),
            worker_cache_hits=sum(worker.cache_hits for worker in workers),
            deduplicated=execution.dedup_hits,
            executed=sum(worker.executed for worker in workers),
            retries=retries,
            queue_latency_seconds=0.0,
            execution_seconds=execution_seconds,
            serial_equivalent_seconds=float(
                sum(counters["busy_seconds"] for counters in worker_counters.values())
            ),
            workers=workers,
        )

    def _notify(self, outcome) -> None:
        if self._progress_callback is not None:
            self._progress_callback(outcome)
