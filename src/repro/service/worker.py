"""Worker-process side of the BIST service: execute one partition, report.

A worker is a separate OS process spawned by the
:class:`~repro.service.coordinator.Coordinator` for exactly one
:class:`~repro.service.partition.WorkPartition`.  It is intentionally thin:
all execution goes through an ordinary single-process
:class:`~repro.bist.runner.CampaignRunner` whose store shard is private to
the worker (``<worker_id>.jsonl`` in the shared store directory), so every
durability and determinism property of the batch path — fsync'd incremental
flushes, resume-as-cache-hit, serial bit-identity — carries over unchanged.

The worker talks to the coordinator over a single multiprocessing queue
with self-describing message tuples:

``("started", worker_id, partition_id, timestamp)``
    Sent once, before execution begins.
``("heartbeat", worker_id, timestamp)``
    Sent by a daemon thread every ``heartbeat_interval`` seconds; the
    coordinator treats a silent worker as dead and re-queues its partition.
``("outcome", worker_id, partition_id, outcome_dict)``
    One per completed scenario, store hits included (archived form of
    :class:`~repro.bist.runner.ScenarioOutcome`), emitted incrementally.
    The coordinator counts hits, executions and errors from these.
``("partition_done", worker_id, partition_id, payload)``
    Terminal success message; ``payload`` is ``{"compiler_stats": ...}``,
    the partition's :class:`~repro.bist.compiler.CompilerStats` as a
    dictionary (``None`` when nothing compiled).
``("partition_failed", worker_id, partition_id, error_text)``
    Terminal failure message for infrastructure-level errors (per-scenario
    errors are ordinary error *outcomes*, not partition failures).

The ``timestamp`` fields in ``started`` / ``heartbeat`` messages are wall
clock (``time.time()``) and **display/log-only**: worker and coordinator
run in different processes, so comparing their clocks would be meaningless
even without NTP steps.  Liveness is decided entirely on the coordinator's
side, from its own ``time.monotonic()`` stamp taken when each message is
*received* (see :meth:`~repro.service.coordinator.Coordinator`).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

from ..bist.engine import BistConfig
from ..bist.runner import CampaignRunner
from ..store import CampaignStore

__all__ = ["WorkerSettings", "run_partition_worker", "DEFAULT_HEARTBEAT_INTERVAL"]

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.25


@dataclass(frozen=True)
class WorkerSettings:
    """Picklable bundle of everything a worker needs besides its partition."""

    store_root: str
    bist_config: BistConfig = field(default_factory=BistConfig)
    converter_factory: object = None
    seed_policy: str = "shared"
    compile_groups: bool = False
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL


def _heartbeat_loop(worker_id, interval, results_queue, stop: threading.Event) -> None:
    """Beat until told to stop; never raise (the queue may already be gone)."""
    while not stop.wait(interval):
        try:
            results_queue.put(("heartbeat", worker_id, time.time()))
        except Exception:  # noqa: BLE001 - a torn queue must not kill the worker
            return


def run_partition_worker(worker_id, partition, settings, results_queue) -> int:
    """Process entry point: execute one partition, stream outcomes back.

    Returns the process exit code (0 on success, 1 when the partition could
    not be executed at all).  Scenario-level failures are *success* at this
    level: they come back as error outcomes inside the partition, exactly
    as the runner reports them.
    """
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, settings.heartbeat_interval, results_queue, stop),
        daemon=True,
    )
    results_queue.put(("started", worker_id, partition.partition_id, time.time()))
    beat.start()
    try:
        store = CampaignStore(settings.store_root, shard=worker_id)
        runner = CampaignRunner(
            bist_config=settings.bist_config,
            converter_factory=settings.converter_factory,
            max_workers=1,
            seed_policy=settings.seed_policy,
            store=store,
            progress_callback=lambda outcome: results_queue.put(
                ("outcome", worker_id, partition.partition_id, outcome.to_dict())
            ),
        )
        execution = runner.run(
            partition.scenarios,
            indices=partition.indices,
            compile=settings.compile_groups,
        )
        results_queue.put(
            (
                "partition_done",
                worker_id,
                partition.partition_id,
                {
                    "compiler_stats": (
                        None
                        if execution.compiler_stats is None
                        else execution.compiler_stats.to_dict()
                    ),
                },
            )
        )
        return 0
    except BaseException as exc:  # noqa: BLE001 - report, then die visibly
        try:
            results_queue.put(
                (
                    "partition_failed",
                    worker_id,
                    partition.partition_id,
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                )
            )
        except Exception:  # noqa: BLE001 - the queue itself may be gone
            pass
        return 1
    finally:
        stop.set()
