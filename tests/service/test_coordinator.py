"""Acceptance tests for the service coordinator.

The contracts under test, straight from the service's promises:

* a multi-worker campaign merges **bit-identically** to a serial run of
  the same grid (reports compared dict-for-dict);
* a worker killed mid-partition triggers a retry that **converges** to the
  same merged result (the flushed prefix is served from the store);
* resubmitting a finished campaign is **all warm** — no new executions;
* an :class:`ExecutionBudget` is charged **exactly once per executed
  scenario** — zero for cache hits, zero extra after a worker retry;
* partitions whose retries are exhausted, and partitions never dispatched
  before a drain, surface as explicit **error outcomes**, never silently
  vanish.
"""

import pytest

import repro.service.coordinator as coordinator_module

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid, skew_sweep
from repro.bist.runner import ExecutionBudget
from repro.errors import BudgetExhaustedError, ValidationError
from repro.service import Coordinator
from repro.store import CampaignStore

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def grid_scenarios(num_skews: int = 4) -> tuple:
    skews = [index * 1e-12 for index in range(num_skews)]
    return (
        ScenarioGrid()
        .add_profiles("paper-qpsk-1ghz")
        .add_converters(skew_sweep(skews))
        .build()
    )


def report_dicts(outcomes) -> list:
    return [
        None if outcome.report is None else outcome.report.to_dict()
        for outcome in outcomes
    ]


def make_coordinator(tmp_path, **overrides) -> Coordinator:
    options = dict(
        num_workers=4,
        bist_config=FAST_CONFIG,
        seed_policy="per-scenario",
        retry_backoff_seconds=0.01,
    )
    options.update(overrides)
    return Coordinator(tmp_path / "store", **options)


class _Process:
    """A worker-process stub that stays alive until joined, if it exits at all."""

    def __init__(self, exits_on_join: bool = True) -> None:
        self.alive = True
        self.exits_on_join = exits_on_join
        self.join_timeouts = []

    def is_alive(self) -> bool:
        return self.alive

    def join(self, timeout=None) -> None:
        self.join_timeouts.append(timeout)
        if self.exits_on_join:
            self.alive = False


class _Queue:
    closed = False

    def close(self) -> None:
        self.closed = True


def done_worker(process) -> coordinator_module._ActiveWorker:
    active = coordinator_module._ActiveWorker(
        "worker-000", 0, process, partition=None, results_queue=_Queue(), retries=0
    )
    active.done = True
    return active


class TestReap:
    def test_done_worker_is_retired_by_the_pass_that_drained_it(self, tmp_path):
        # partition_done arrives while the child is still alive; one _reap
        # joins it (at most one poll interval) and retires it, instead of
        # leaving it for the next pass behind a poll sleep.
        process = _Process()
        active = done_worker(process)
        in_flight = {0: active}
        make_coordinator(tmp_path)._reap(in_flight, [], [])
        assert in_flight == {}
        assert active.results_queue.closed
        assert process.join_timeouts == [coordinator_module._POLL_SECONDS]

    def test_done_worker_alive_after_the_join_waits_for_the_next_pass(self, tmp_path):
        process = _Process(exits_on_join=False)
        active = done_worker(process)
        in_flight = {0: active}
        pending, failed = [], []
        make_coordinator(tmp_path)._reap(in_flight, pending, failed)
        assert in_flight == {0: active}
        assert not active.results_queue.closed
        assert pending == [] and failed == []
        process.exits_on_join = True
        make_coordinator(tmp_path)._reap(in_flight, pending, failed)
        assert in_flight == {}


class TestValidation:
    def test_worker_count_is_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="num_workers"):
            Coordinator(tmp_path, num_workers=0)

    def test_heartbeat_settings_are_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="positive"):
            Coordinator(tmp_path, heartbeat_interval=0.0)

    def test_backoff_is_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="retry_backoff_seconds"):
            Coordinator(tmp_path, retry_backoff_seconds=-1.0)

    def test_budget_type_is_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="ExecutionBudget"):
            make_coordinator(tmp_path).run(grid_scenarios(1), budget=3)


class TestBitIdentity:
    def test_four_worker_merge_is_bit_identical_to_serial(self, tmp_path):
        scenarios = grid_scenarios(4)
        serial = CampaignRunner(
            bist_config=FAST_CONFIG, seed_policy="per-scenario"
        ).run(scenarios)
        execution = make_coordinator(tmp_path).run(scenarios)
        assert not execution.execution.errors
        assert [o.index for o in execution.execution.outcomes] == list(range(4))
        assert [o.label for o in execution.execution.outcomes] == [
            o.label for o in serial.outcomes
        ]
        assert report_dicts(execution.execution.outcomes) == report_dicts(serial.outcomes)
        stats = execution.stats
        assert stats.num_workers == 4
        assert stats.scenarios_total == 4
        assert stats.executed == 4
        assert stats.cache_hits == 0
        assert stats.execution_seconds > 0.0
        assert stats.serial_equivalent_seconds > 0.0

    def test_resubmission_is_entirely_warm(self, tmp_path):
        scenarios = grid_scenarios(3)
        make_coordinator(tmp_path).run(scenarios)
        execution = make_coordinator(tmp_path).run(scenarios)
        stats = execution.stats
        assert stats.executed == 0
        assert stats.planned_cache_hits == 3
        assert stats.warm_hit_rate == 1.0
        assert stats.num_partitions == 0
        assert all(outcome.cached for outcome in execution.execution.outcomes)

    def test_summary_carries_the_service_section(self, tmp_path):
        execution = make_coordinator(tmp_path).run(grid_scenarios(2))
        summary = execution.summary()
        assert summary.sections["service"] == execution.stats.to_dict()
        assert summary.sections["service"]["num_workers"] == 4
        text = summary.to_text()
        assert "campaign service:" in text
        assert "warm-cache hit rate" in text

    def test_progress_callback_sees_every_outcome(self, tmp_path):
        seen = []
        execution = make_coordinator(tmp_path, progress_callback=seen.append).run(
            grid_scenarios(2)
        )
        assert sorted(outcome.index for outcome in seen) == [0, 1]
        assert len(execution.execution.outcomes) == 2


class TestKilledWorker:
    def test_killed_worker_partition_is_retried_and_converges(self, tmp_path):
        scenarios = grid_scenarios(6)
        serial = CampaignRunner(
            bist_config=FAST_CONFIG, seed_policy="per-scenario"
        ).run(scenarios)
        execution = make_coordinator(
            tmp_path, num_workers=2, chaos_kill_worker=0
        ).run(scenarios)
        assert execution.stats.retries >= 1
        assert not execution.execution.errors
        assert report_dicts(execution.execution.outcomes) == report_dicts(serial.outcomes)

    def test_retry_serves_the_flushed_prefix_from_the_store(self, tmp_path):
        execution = make_coordinator(
            tmp_path, num_workers=2, chaos_kill_worker=0
        ).run(grid_scenarios(6))
        # The killed worker flushed at least its first outcome before dying;
        # the replacement worker must serve it as a cache hit, not re-run it.
        assert execution.stats.worker_cache_hits >= 1
        assert execution.stats.warm_hit_rate > 0.0


class TestRetriesExhausted:
    def test_permanently_failing_partition_surfaces_error_outcomes(self, tmp_path, monkeypatch):
        def always_fail(worker_id, partition, settings, results_queue):
            results_queue.put(("started", worker_id, partition.partition_id, 0.0))
            results_queue.put(
                ("partition_failed", worker_id, partition.partition_id, "RuntimeError: boom")
            )
            return 1

        monkeypatch.setattr(coordinator_module, "run_partition_worker", always_fail)
        scenarios = grid_scenarios(2)
        execution = make_coordinator(tmp_path, num_workers=2, max_retries=1).run(scenarios)
        assert len(execution.execution.outcomes) == 2
        assert len(execution.execution.errors) == 2
        for outcome in execution.execution.outcomes:
            assert not outcome.ok
            assert "ServiceRetriesExhausted" in outcome.error
            assert "boom" in outcome.error
            assert outcome.worker == "coordinator"
        assert execution.stats.retries == 2  # 1 retry per failed partition

    def test_worker_death_without_message_is_detected(self, tmp_path, monkeypatch):
        import os

        def die_silently(worker_id, partition, settings, results_queue):
            results_queue.put(("started", worker_id, partition.partition_id, 0.0))
            os._exit(13)

        monkeypatch.setattr(coordinator_module, "run_partition_worker", die_silently)
        execution = make_coordinator(tmp_path, num_workers=1, max_retries=0).run(
            grid_scenarios(1)
        )
        outcome = execution.execution.outcomes[0]
        assert not outcome.ok
        assert "died" in outcome.error
        assert "exit code 13" in outcome.error


class TestDrain:
    def test_drain_before_run_reports_undispatched_partitions(self, tmp_path):
        coordinator = make_coordinator(tmp_path, num_workers=2)
        # Drain immediately: the flag is checked before the first dispatch,
        # but run() resets it, so request drain from the progress callback
        # of the very first planning pass instead -- simplest determinism:
        # drain after the first outcome arrives.
        scenarios = grid_scenarios(6)
        fired = []

        def drain_once(outcome):
            if not fired:
                fired.append(outcome)
                coordinator.request_drain()

        coordinator._progress_callback = drain_once
        execution = coordinator.run(scenarios)
        assert len(execution.execution.outcomes) == len(scenarios)
        drained = [
            outcome
            for outcome in execution.execution.outcomes
            if outcome.error and "ServiceDrained" in outcome.error
        ]
        completed = [outcome for outcome in execution.execution.outcomes if outcome.ok]
        # In-flight partitions finish; never-dispatched ones surface as drained.
        assert completed
        assert all(outcome.worker == "coordinator" for outcome in drained)


class TestBudget:
    def test_budget_charged_exactly_once_per_executed_scenario(self, tmp_path):
        scenarios = grid_scenarios(3)
        budget = ExecutionBudget(10)
        make_coordinator(tmp_path).run(scenarios, budget=budget)
        assert budget._spent == 3

    def test_cache_hits_cost_nothing(self, tmp_path):
        scenarios = grid_scenarios(3)
        make_coordinator(tmp_path).run(scenarios)
        budget = ExecutionBudget(10)
        execution = make_coordinator(tmp_path).run(scenarios, budget=budget)
        assert budget._spent == 0
        assert execution.stats.warm_hit_rate == 1.0

    def test_retry_after_worker_death_does_not_double_charge(self, tmp_path):
        scenarios = grid_scenarios(6)
        budget = ExecutionBudget(6)  # exactly the grid: any double charge raises
        execution = make_coordinator(
            tmp_path, num_workers=2, chaos_kill_worker=0
        ).run(scenarios, budget=budget)
        assert execution.stats.retries >= 1
        assert budget._spent == 6
        assert budget._spent == budget._max_scenarios

    def test_exhausted_budget_raises_after_flushing_in_flight_work(self, tmp_path):
        scenarios = grid_scenarios(4)
        budget = ExecutionBudget(1)
        with pytest.raises(BudgetExhaustedError):
            make_coordinator(
                tmp_path, num_workers=1, partitions_per_worker=4
            ).run(scenarios, budget=budget)
        # The affordable partition executed and was flushed: a re-run with a
        # fresh budget resumes from the store and only pays for the rest.
        resume_budget = ExecutionBudget(4)
        execution = make_coordinator(tmp_path).run(scenarios, budget=resume_budget)
        assert not execution.execution.errors
        assert resume_budget._spent == 4 - execution.stats.planned_cache_hits
        assert execution.stats.planned_cache_hits >= 1
