"""In-process tests for the worker entry point and its message protocol.

``run_partition_worker`` normally runs in a forked process, but it is a
plain function: driving it in-process with a list-backed queue pins down
the exact message sequence the coordinator relies on — started first,
incremental outcomes, heartbeats from the side thread, one terminal
message — without any process-management noise.
"""

import threading
import time

from repro.bist import BistConfig, ScenarioGrid, ScenarioOutcome
from repro.service.partition import plan_partitions
from repro.service.worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    WorkerSettings,
    _heartbeat_loop,
    run_partition_worker,
)
from repro.store import CampaignStore

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


#: Longest a held-back outcome waits for the first heartbeat (seconds).
HEARTBEAT_WAIT_SECONDS = 5.0


class RecordingQueue:
    """Queue stand-in that just records every message, thread-safely.

    With ``outcome_after_heartbeat`` it holds each ``"outcome"`` put until a
    ``"heartbeat"`` has been recorded (at most :data:`HEARTBEAT_WAIT_SECONDS`),
    so a live heartbeat thread beats during execution however fast the
    partition runs, while a dead one still leaves no beat in the record.
    """

    def __init__(self, fail_after: int | None = None, outcome_after_heartbeat: bool = False):
        self.messages = []
        self._lock = threading.Lock()
        self._fail_after = fail_after
        self._outcome_after_heartbeat = outcome_after_heartbeat
        self._heartbeat = threading.Event()

    def put(self, message):
        if self._outcome_after_heartbeat and message[0] == "outcome":
            # Outside the lock, so the heartbeat thread can record its beat.
            self._heartbeat.wait(HEARTBEAT_WAIT_SECONDS)
        with self._lock:
            if self._fail_after is not None and len(self.messages) >= self._fail_after:
                raise OSError("queue torn")
            self.messages.append(message)
            if message[0] == "heartbeat":
                self._heartbeat.set()

    def outcomes(self) -> list:
        with self._lock:
            return [
                ScenarioOutcome.from_dict(message[3])
                for message in self.messages
                if message[0] == "outcome"
            ]

    def kinds(self) -> list:
        with self._lock:
            return [message[0] for message in self.messages]


def one_partition(profiles=("paper-qpsk-1ghz",)):
    grid = ScenarioGrid().add_profiles(*profiles).build()
    plan = plan_partitions(grid, num_partitions=1, bist_config=FAST_CONFIG)
    assert len(plan.partitions) == 1
    return plan.partitions[0]


class TestSuccessPath:
    def test_message_sequence_and_done_payload(self, tmp_path):
        queue = RecordingQueue(outcome_after_heartbeat=True)
        partition = one_partition()
        settings = WorkerSettings(
            store_root=str(tmp_path / "store"),
            bist_config=FAST_CONFIG,
            heartbeat_interval=0.01,
        )
        code = run_partition_worker("worker-000", partition, settings, queue)
        assert code == 0
        kinds = queue.kinds()
        assert kinds[0] == "started"
        assert kinds[-1] == "partition_done"
        assert kinds.count("outcome") == 1
        # The outcome waited for the 10 ms heartbeat thread's first beat.
        assert "heartbeat" in kinds
        done = queue.messages[-1]
        assert done[1] == "worker-000"
        assert done[2] == partition.partition_id
        # Counts travel as streamed outcomes; the terminal payload carries
        # only the compiler statistics (none for an uncompiled partition).
        assert done[3] == {"compiler_stats": None}
        (outcome,) = queue.outcomes()
        assert outcome.ok and not outcome.cached

    def test_outcomes_land_in_the_worker_private_shard(self, tmp_path):
        queue = RecordingQueue()
        settings = WorkerSettings(
            store_root=str(tmp_path / "store"), bist_config=FAST_CONFIG
        )
        run_partition_worker("worker-007", one_partition(), settings, queue)
        store = CampaignStore(tmp_path / "store")
        assert [path.name for path in store.shard_paths()] == ["worker-007.jsonl"]
        assert len(store.fingerprints()) == 1

    def test_rerun_serves_from_cache(self, tmp_path):
        settings = WorkerSettings(
            store_root=str(tmp_path / "store"), bist_config=FAST_CONFIG
        )
        run_partition_worker("worker-000", one_partition(), settings, RecordingQueue())
        queue = RecordingQueue()
        run_partition_worker("worker-001", one_partition(), settings, queue)
        (outcome,) = queue.outcomes()
        assert outcome.cached and outcome.worker == "store"


class TestFailurePath:
    def test_infrastructure_errors_report_partition_failed(self, tmp_path):
        queue = RecordingQueue()
        # An unwritable store root makes the runner die before any scenario.
        marker = tmp_path / "not-a-directory"
        marker.write_text("file, not dir")
        settings = WorkerSettings(store_root=str(marker), bist_config=FAST_CONFIG)
        code = run_partition_worker("worker-000", one_partition(), settings, queue)
        assert code == 1
        kinds = queue.kinds()
        assert kinds[0] == "started"
        assert kinds[-1] == "partition_failed"
        error_text = queue.messages[-1][3]
        assert "Traceback" in error_text

    def test_torn_queue_on_failure_report_stays_silent(self, tmp_path):
        # Queue dies right after "started": the terminal report cannot be
        # delivered, but the worker must still exit with code 1, not raise.
        queue = RecordingQueue(fail_after=1)
        marker = tmp_path / "not-a-directory"
        marker.write_text("file, not dir")
        settings = WorkerSettings(store_root=str(marker), bist_config=FAST_CONFIG)
        code = run_partition_worker("worker-000", one_partition(), settings, queue)
        assert code == 1
        assert queue.kinds() == ["started"]


class TestHeartbeatLoop:
    def test_beats_until_stopped(self):
        queue = RecordingQueue()
        stop = threading.Event()
        thread = threading.Thread(
            target=_heartbeat_loop, args=("worker-000", 0.005, queue, stop)
        )
        thread.start()
        time.sleep(0.05)
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        kinds = queue.kinds()
        assert kinds and set(kinds) == {"heartbeat"}
        _, worker_id, timestamp = queue.messages[0]
        assert worker_id == "worker-000"
        assert timestamp <= time.time()

    def test_torn_queue_ends_the_loop_quietly(self):
        queue = RecordingQueue(fail_after=0)
        stop = threading.Event()
        thread = threading.Thread(
            target=_heartbeat_loop, args=("worker-000", 0.005, queue, stop)
        )
        thread.start()
        thread.join(timeout=5)
        # The loop exited on its own after the first failed put.
        assert not thread.is_alive()
        assert queue.messages == []

    def test_default_interval_is_sub_second(self):
        # The coordinator's liveness timeout maths assume frequent beats.
        assert 0 < DEFAULT_HEARTBEAT_INTERVAL < 1.0
