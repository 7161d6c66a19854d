"""Fingerprint dedup and chunked pool submission in CampaignRunner."""

import numpy as np
import pytest

from repro.bist import (
    BistConfig,
    CampaignRunner,
    CampaignScenario,
    ConverterSpec,
    ScenarioGrid,
    execute_scenario,
    skew_sweep,
)
from repro.bist.runner import ExecutionBudget
from repro.store import CampaignStore

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def identical_scenarios(count, profile="paper-qpsk-1ghz"):
    return [CampaignScenario(profile=profile, label=f"s{i}") for i in range(count)]


class TestFingerprintDedup:
    def test_identical_scenarios_execute_once(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(identical_scenarios(4))
        workers = [outcome.worker for outcome in execution.outcomes]
        assert workers.count("dedup") == 3
        assert execution.dedup_hits == 3
        primary = execution.outcomes[0]
        for outcome in execution.outcomes[1:]:
            assert outcome.deduplicated
            assert outcome.duration_seconds == 0.0
            assert outcome.report.to_dict() == primary.report.to_dict()

    def test_dedup_preserves_labels_and_order(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(identical_scenarios(3))
        assert [outcome.label for outcome in execution.outcomes] == ["s0", "s1", "s2"]

    def test_distinct_scenarios_are_not_deduplicated(self):
        scenarios = (
            ScenarioGrid()
            .add_profile("paper-qpsk-1ghz")
            .add_converters(skew_sweep([0.0, 2e-12]))
            .build()
        )
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        assert execution.dedup_hits == 0
        assert not any(outcome.deduplicated for outcome in execution.outcomes)

    def test_per_scenario_seed_policy_defeats_dedup(self):
        # Decorrelated seeds change the fingerprint, so nominally identical
        # scenarios legitimately execute separately.
        execution = CampaignRunner(
            bist_config=FAST_CONFIG, seed_policy="per-scenario"
        ).run(identical_scenarios(3))
        assert execution.dedup_hits == 0

    def test_dedup_results_identical_to_direct_execution(self):
        scenarios = identical_scenarios(3)
        deduped = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        direct = execute_scenario(scenarios[0], bist_config=FAST_CONFIG)
        for outcome in deduped.outcomes:
            assert outcome.report.to_dict() == direct.to_dict()

    def test_dedup_with_store_archives_the_primary_once(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        runner = CampaignRunner(bist_config=FAST_CONFIG, store=store)
        first = runner.run(identical_scenarios(3))
        assert first.dedup_hits == 2
        assert len(store) == 1
        # A rerun serves everything from the one archived fingerprint.
        second = CampaignRunner(bist_config=FAST_CONFIG, store=store).run(
            identical_scenarios(3)
        )
        assert second.cache_hits == 3
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.report.to_dict() == b.report.to_dict()

    def test_dedup_counts_surface_in_the_summary(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(identical_scenarios(3))
        summary = execution.summary()
        assert summary.deduplicated == 2
        assert summary.cache_misses == 1
        assert "2 deduplicated" in summary.to_text()
        assert summary.to_dict()["deduplicated"] == 2

    def test_unfingerprintable_scenarios_bypass_dedup(self):
        # An unresolvable profile cannot be fingerprinted, so each copy runs
        # (and errors) on its own — dedup never guesses about equivalence.
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            identical_scenarios(2, profile="no-such-profile")
        )
        assert not execution.outcomes[0].ok and not execution.outcomes[1].ok
        assert not any(outcome.deduplicated for outcome in execution.outcomes)
        assert execution.dedup_hits == 0

    def test_arbitrary_factory_executes_every_scenario(self):
        # A lambda factory cannot be fingerprinted, so dedup stands down and
        # each identical scenario executes on its own.
        execution = CampaignRunner(
            bist_config=FAST_CONFIG,
            converter_factory=lambda bandwidth: ConverterSpec()(bandwidth),
        ).run(identical_scenarios(3))
        assert execution.dedup_hits == 0
        assert all(outcome.worker.startswith("pid-") for outcome in execution.outcomes)

    def test_duplicates_are_not_charged_to_the_budget(self):
        # Only the primary executes, so a one-scenario budget covers a batch
        # of identical scenarios.
        budget = ExecutionBudget(1)
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            identical_scenarios(3), budget=budget
        )
        assert budget._spent == 1
        assert execution.dedup_hits == 2
        assert all(outcome.ok for outcome in execution.outcomes)


@pytest.fixture
def two_per_chunk(monkeypatch):
    """One chunk per worker, so a 2-worker pool ships ~2 scenarios a future."""
    monkeypatch.setattr(CampaignRunner, "_CHUNKS_PER_WORKER", 1)


class TestChunkedSubmission:
    def test_effective_chunk_size_scales_with_workers(self):
        runner = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2)
        # ceil(num_tasks / (max_workers * 4)) keeps >= 4 chunks per worker
        # for load balance while amortising submission overhead.
        assert runner._effective_chunk_size(4) == 1
        assert runner._effective_chunk_size(16) == 2
        assert runner._effective_chunk_size(33) == 5

    def test_chunked_pool_matches_serial_bit_for_bit(self, two_per_chunk):
        scenarios = (
            ScenarioGrid()
            .add_profile("paper-qpsk-1ghz")
            .add_converters(skew_sweep(np.linspace(0.0, 3e-12, 4)))
            .build()
        )
        serial = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        chunked_runner = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2)
        assert chunked_runner._effective_chunk_size(len(scenarios)) == 2
        chunked = chunked_runner.run(scenarios)
        assert all(outcome.ok for outcome in chunked.outcomes)
        for a, b in zip(serial.outcomes, chunked.outcomes):
            assert a.label == b.label
            assert a.report.to_dict() == b.report.to_dict()

    def test_chunk_error_isolated_to_its_scenarios(self, two_per_chunk):
        # An unresolvable scenario inside a chunk errors alone; the rest of
        # the chunk (and the other chunk) succeed.
        scenarios = [
            CampaignScenario(profile="paper-qpsk-1ghz", label="ok-1"),
            CampaignScenario(profile="no-such-profile", label="bad"),
            CampaignScenario(profile="uhf-8psk-400mhz", label="ok-2"),
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2).run(scenarios)
        by_label = {outcome.label: outcome for outcome in execution.outcomes}
        assert by_label["ok-1"].ok and by_label["ok-2"].ok
        assert not by_label["bad"].ok and "no-such-profile" in by_label["bad"].error
