"""Tests for the asyncio job queue: lifecycle, isolation, drain, latency."""

import asyncio
import threading
import time

import pytest

from repro.bist import BistConfig
from repro.errors import JobNotFoundError, ServiceError
from repro.service import CampaignSpec, JobQueue
from repro.service.queue import Job

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def fast_spec(profiles=("paper-qpsk-1ghz",)) -> CampaignSpec:
    return CampaignSpec(profiles=profiles, bist_config=FAST_CONFIG)


async def wait_terminal(queue: JobQueue, job_id: str, timeout: float = 120.0) -> dict:
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status = queue.status(job_id)
        if status["state"] in ("done", "partial", "failed"):
            return status
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"job {job_id} never finished: {status}")
        await asyncio.sleep(0.05)


class TestLifecycle:
    def test_job_runs_to_done_with_queue_latency(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=2)
            job_id = queue.submit(fast_spec())
            assert queue.status(job_id)["state"] in ("queued", "running")
            status = await wait_terminal(queue, job_id)
            assert status["state"] == "done"
            assert status["queue_latency_seconds"] >= 0.0
            assert status["completed_scenarios"] == 1
            result = queue.result(job_id)
            assert result["state"] == "done"
            assert "campaign service:" in result["summary_text"]
            service = result["summary"]["sections"]["service"]
            assert service["queue_latency_seconds"] == status["queue_latency_seconds"]
            await queue.drain()

        asyncio.run(scenario())

    def test_error_scenarios_mark_the_job_partial(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            job_id = queue.submit(fast_spec(("paper-qpsk-1ghz", "no-such-profile")))
            status = await wait_terminal(queue, job_id)
            assert status["state"] == "partial"
            result = queue.result(job_id)
            outcomes = result["outcomes"]
            assert len(outcomes) == 2
            assert sum(1 for outcome in outcomes if outcome["error"]) == 1
            await queue.drain()

        asyncio.run(scenario())

    def test_jobs_execute_in_submission_order(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            first = queue.submit(fast_spec())
            second = queue.submit(fast_spec(("uhf-8psk-400mhz",)))
            await wait_terminal(queue, second)
            jobs = queue.jobs()
            assert [job["job_id"] for job in jobs] == [first, second]
            assert all(job["state"] == "done" for job in jobs)
            starts = [job["started_at"] for job in jobs]
            assert starts[0] <= starts[1]
            await queue.drain()

        asyncio.run(scenario())

    def test_second_submission_is_warm(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=2)
            first = queue.submit(fast_spec())
            await wait_terminal(queue, first)
            second = queue.submit(fast_spec())
            await wait_terminal(queue, second)
            stats = queue.result(second)["summary"]["sections"]["service"]
            assert stats["warm_hit_rate"] == 1.0
            assert stats["executed"] == 0
            await queue.drain()

        asyncio.run(scenario())


class TestErrors:
    def test_unknown_job_raises(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store")
            with pytest.raises(JobNotFoundError, match="job-999999"):
                queue.status("job-999999")
            await queue.drain()

        asyncio.run(scenario())

    def test_result_before_terminal_raises(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            job_id = queue.submit(fast_spec())
            with pytest.raises(ServiceError, match="results exist only"):
                queue.result(job_id)
            await wait_terminal(queue, job_id)
            await queue.drain()

        asyncio.run(scenario())

    def test_non_spec_submissions_are_rejected(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store")
            with pytest.raises(ServiceError, match="CampaignSpec"):
                queue.submit({"profiles": ["paper-qpsk-1ghz"]})
            await queue.drain()

        asyncio.run(scenario())


class TestDrain:
    def test_drained_queue_refuses_new_jobs(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            job_id = queue.submit(fast_spec())
            await wait_terminal(queue, job_id)
            await queue.drain()
            assert queue.draining
            with pytest.raises(ServiceError, match="draining"):
                queue.submit(fast_spec())

        asyncio.run(scenario())

    def test_drain_fails_jobs_still_queued(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            running = queue.submit(fast_spec())
            waiting = queue.submit(fast_spec(("uhf-8psk-400mhz",)))
            # Let the first job enter the executor before draining.
            while queue.status(running)["state"] == "queued":
                await asyncio.sleep(0.01)
            await queue.drain()
            assert queue.status(waiting)["state"] == "failed"
            assert "drained" in queue.status(waiting)["error"]
            # The running job either finished or was drained mid-flight; it
            # must have reached a terminal state either way.
            assert queue.status(running)["state"] in ("done", "partial", "failed")

        asyncio.run(scenario())

    def test_service_stats_aggregate_job_states(self, tmp_path):
        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            job_id = queue.submit(fast_spec())
            await wait_terminal(queue, job_id)
            stats = queue.service_stats()
            assert stats["jobs"]["done"] == 1
            assert stats["num_workers"] == 1
            assert stats["mean_queue_latency_seconds"] >= 0.0
            await queue.drain()

        asyncio.run(scenario())


class TestMonotonicDurations:
    """Durations must come from the monotonic clock, never wall-clock deltas."""

    def test_execution_seconds_uses_monotonic_stamps_not_wall(self):
        job = Job(job_id="job-000001", spec=fast_spec())
        assert job.execution_seconds is None  # still queued
        job._started_monotonic = 100.0
        job._finished_monotonic = 102.5
        # Wall clock stepped backwards between dispatch and finish (NTP).
        job.started_at = 2_000_000_000.0
        job.finished_at = 1_000_000_000.0
        assert job.execution_seconds == 2.5

    def test_execution_seconds_clamped_at_zero(self):
        job = Job(job_id="job-000001", spec=fast_spec())
        job._started_monotonic = 100.0
        job._finished_monotonic = 99.0  # impossible in practice; clamp anyway
        assert job.execution_seconds == 0.0

    def test_running_job_reports_live_elapsed(self):
        job = Job(job_id="job-000001", spec=fast_spec())
        job._started_monotonic = time.monotonic() - 1.0
        assert job.execution_seconds >= 1.0

    def test_wall_clock_stepping_backwards_cannot_poison_durations(
        self, tmp_path, monkeypatch
    ):
        # Every time.time() call returns an *earlier* value than the last, so
        # any duration derived from wall-clock deltas would be negative.  The
        # child worker processes are spawned unpatched, which is fine: their
        # timestamps are display-only payload.
        lock = threading.Lock()
        state = {"now": 1_000_000_000.0}

        def stepping_backwards():
            with lock:
                state["now"] -= 100.0
                return state["now"]

        monkeypatch.setattr(time, "time", stepping_backwards)

        async def scenario():
            queue = JobQueue(tmp_path / "store", num_workers=1)
            job_id = queue.submit(fast_spec())
            status = await wait_terminal(queue, job_id)
            assert status["state"] == "done"
            # The wall stamps really did run backwards...
            assert status["finished_at"] < status["started_at"]
            # ...yet every duration stayed non-negative.
            assert status["queue_latency_seconds"] >= 0.0
            assert status["execution_seconds"] >= 0.0
            stats = status["stats"]
            assert stats["queue_latency_seconds"] >= 0.0
            assert stats["execution_seconds"] >= 0.0
            assert stats["scaling_efficiency"] >= 0.0
            assert queue.service_stats()["mean_queue_latency_seconds"] >= 0.0
            await queue.drain()

        asyncio.run(scenario())
