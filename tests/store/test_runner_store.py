"""Tests for the CampaignRunner/FaultCampaign store hook.

The acceptance contract of the persistent store: cache hits verifiably skip
execution (counters asserted, and the execution path physically disabled),
and an interrupted campaign resumed from the store produces a merged
execution bit-identical to a single uninterrupted run with the same seed.
"""

import pytest

import repro.bist.runner as runner_module

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid, skew_sweep
from repro.bist.campaign import CampaignScenario
from repro.faults import FaultCampaign, IqImbalanceFault, TiadcSkewFault
from repro.store import CampaignStore
from repro.transmitter import ImpairmentConfig

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def small_grid() -> tuple:
    """A 4-scenario grid: 2 impairment points x 2 converter skews."""
    return (
        ScenarioGrid()
        .add_profiles("paper-qpsk-1ghz")
        .add_impairment("nominal", ImpairmentConfig())
        .add_impairment(
            "iq-fault", IqImbalanceFault(severity=1.0).apply_transmitter(ImpairmentConfig())
        )
        .add_converters(skew_sweep([0.0, 2e-12]))
        .build()
    )


def report_dicts(execution) -> list:
    return [
        None if outcome.report is None else outcome.report.to_dict()
        for outcome in execution.outcomes
    ]


class TestCacheHits:
    def test_second_run_is_all_hits_with_identical_reports(self, tmp_path):
        scenarios = small_grid()
        first = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(tmp_path / "store")
        ).run(scenarios)
        assert first.cache_hits == 0
        assert first.cache_misses == len(scenarios)
        second = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(tmp_path / "store")
        ).run(scenarios)
        assert second.cache_hits == len(scenarios)
        assert second.cache_misses == 0
        assert report_dicts(second) == report_dicts(first)
        assert [outcome.label for outcome in second.outcomes] == [
            outcome.label for outcome in first.outcomes
        ]
        assert all(outcome.worker == "store" for outcome in second.outcomes)

    def test_cached_run_never_enters_the_execution_path(self, tmp_path, monkeypatch):
        scenarios = small_grid()
        store = CampaignStore(tmp_path / "store")
        CampaignRunner(bist_config=FAST_CONFIG, store=store).run(scenarios)

        def explode(task):
            raise AssertionError("cache hit must not execute the scenario")

        monkeypatch.setattr(runner_module, "_execute_task", explode)
        execution = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(tmp_path / "store")
        ).run(scenarios)
        assert execution.cache_hits == len(scenarios)

    def test_counters_surface_in_summary(self, tmp_path):
        scenarios = small_grid()
        store_root = tmp_path / "store"
        CampaignRunner(bist_config=FAST_CONFIG, store=CampaignStore(store_root)).run(scenarios)
        summary = (
            CampaignRunner(bist_config=FAST_CONFIG, store=CampaignStore(store_root))
            .run(scenarios)
            .summary()
        )
        assert summary.cache_hits == len(scenarios)
        assert summary.cache_misses == 0
        assert summary.to_dict()["cache_hits"] == len(scenarios)
        assert "cache hit" in summary.to_text()

    def test_runs_without_store_count_everything_as_executed(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(small_grid()[:2])
        assert execution.cache_hits == 0
        assert execution.cache_misses == 2
        assert execution.summary().cache_hits == 0

    def test_partial_overlap_executes_only_new_scenarios(self, tmp_path):
        scenarios = small_grid()
        store_root = tmp_path / "store"
        CampaignRunner(bist_config=FAST_CONFIG, store=CampaignStore(store_root)).run(
            scenarios[:2]
        )
        executed = []
        execution = CampaignRunner(
            bist_config=FAST_CONFIG,
            store=CampaignStore(store_root),
            progress_callback=lambda outcome: executed.append(outcome.label)
            if not outcome.cached
            else None,
        ).run(scenarios)
        assert execution.cache_hits == 2
        assert sorted(executed) == sorted(
            scenario.resolved_label() for scenario in scenarios[2:]
        )


class TestInterruptAndResume:
    def test_resumed_campaign_bit_identical_to_uninterrupted(self, tmp_path):
        scenarios = small_grid()
        uninterrupted = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)

        class Interrupt(Exception):
            pass

        completed = 0

        def kill_after_two(outcome):
            nonlocal completed
            completed += 1
            if completed == 2:
                raise Interrupt()

        with pytest.raises(Interrupt):
            CampaignRunner(
                bist_config=FAST_CONFIG,
                store=CampaignStore(tmp_path / "store"),
                progress_callback=kill_after_two,
            ).run(scenarios)

        # The two finished scenarios were flushed before the crash.
        survived = CampaignStore(tmp_path / "store")
        assert len(survived) == 2

        resumed = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(tmp_path / "store")
        ).run(scenarios)
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 2
        assert report_dicts(resumed) == report_dicts(uninterrupted)
        assert [outcome.index for outcome in resumed.outcomes] == [
            outcome.index for outcome in uninterrupted.outcomes
        ]
        assert [outcome.label for outcome in resumed.outcomes] == [
            outcome.label for outcome in uninterrupted.outcomes
        ]

    def test_parallel_resume_matches_serial_uninterrupted(self, tmp_path):
        scenarios = small_grid()
        uninterrupted = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        store_root = tmp_path / "store"
        CampaignRunner(bist_config=FAST_CONFIG, store=CampaignStore(store_root)).run(
            scenarios[:2]
        )
        resumed = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(store_root), max_workers=2
        ).run(scenarios)
        assert resumed.cache_hits == 2
        assert report_dicts(resumed) == report_dicts(uninterrupted)


class TestErrorHandling:
    def test_errored_scenarios_are_not_cached(self, tmp_path):
        scenarios = (CampaignScenario(profile="no-such-profile"),)
        store_root = tmp_path / "store"
        first = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(store_root)
        ).run(scenarios)
        assert first.errors
        assert len(CampaignStore(store_root)) == 0
        second = CampaignRunner(
            bist_config=FAST_CONFIG, store=CampaignStore(store_root)
        ).run(scenarios)
        # The failure re-executes on resume instead of being replayed.
        assert second.cache_hits == 0
        assert second.errors


class TestFaultCampaignStore:
    @pytest.mark.slow
    def test_fault_campaign_resumes_with_identical_dictionary(self, tmp_path):
        campaign = FaultCampaign(
            profiles=["paper-qpsk-1ghz"],
            faults=[IqImbalanceFault(severity=1.0), TiadcSkewFault(severity=1.0)],
            bist_config=FAST_CONFIG,
            num_repeats=2,
            num_reference=2,
        )
        store_root = tmp_path / "store"
        first = campaign.run(store=CampaignStore(store_root))
        second = campaign.run(store=CampaignStore(store_root))
        assert second.execution.cache_hits == len(campaign)
        assert (
            second.dictionary().to_dict() == first.dictionary().to_dict()
        )
