"""Tests for partition planning: balance, store consult, determinism."""

import pytest

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid, skew_sweep
from repro.bist.runner import pa_saturation_sweep
from repro.errors import ValidationError
from repro.service import WorkPartition, plan_partitions
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


class TestWorkPartition:
    def test_alignment_is_enforced(self):
        scenarios = grid_scenarios(2)
        with pytest.raises(ValidationError, match="align"):
            WorkPartition(
                partition_id=0,
                indices=(0, 1),
                scenarios=scenarios,
                labels=("a",),
                fingerprints=(None, None),
            )

    def test_empty_partitions_are_rejected(self):
        with pytest.raises(ValidationError, match="at least one scenario"):
            WorkPartition(
                partition_id=0, indices=(), scenarios=(), labels=(), fingerprints=()
            )


class TestPlanning:
    def test_partitions_cover_the_grid_exactly_once(self):
        scenarios = grid_scenarios(6)
        plan = plan_partitions(scenarios, num_partitions=3, bist_config=FAST_CONFIG)
        indices = sorted(
            index for partition in plan.partitions for index in partition.indices
        )
        assert indices == list(range(len(scenarios)))
        assert plan.scenarios_total == len(scenarios)
        assert sum(len(partition) for partition in plan.partitions) == len(scenarios)
        assert not plan.cached

    def test_balance_is_even_for_uniform_grids(self):
        plan = plan_partitions(grid_scenarios(8), num_partitions=4, bist_config=FAST_CONFIG)
        sizes = sorted(len(partition) for partition in plan.partitions)
        assert sizes == [2, 2, 2, 2]

    def test_trailing_empty_partitions_are_dropped(self):
        plan = plan_partitions(grid_scenarios(3), num_partitions=8, bist_config=FAST_CONFIG)
        assert len(plan.partitions) == 3
        assert [partition.partition_id for partition in plan.partitions] == [0, 1, 2]

    def test_planning_is_deterministic(self):
        scenarios = grid_scenarios(7)
        first = plan_partitions(scenarios, num_partitions=3, bist_config=FAST_CONFIG)
        second = plan_partitions(scenarios, num_partitions=3, bist_config=FAST_CONFIG)
        assert [p.indices for p in first.partitions] == [p.indices for p in second.partitions]
        assert [p.fingerprints for p in first.partitions] == [
            p.fingerprints for p in second.partitions
        ]

    def test_labels_and_indices_stay_aligned_with_the_runner(self):
        scenarios = grid_scenarios(4)
        _, tasks, _ = CampaignRunner(bist_config=FAST_CONFIG).plan(scenarios)
        by_index = {task.index: task.label for task in tasks}
        plan = plan_partitions(scenarios, num_partitions=2, bist_config=FAST_CONFIG)
        for partition in plan.partitions:
            for index, label in zip(partition.indices, partition.labels):
                assert by_index[index] == label

    def test_identical_fingerprints_cluster_into_one_partition(self):
        # Two identical scenario tuples: same fingerprint, must co-locate so
        # the worker-side dedup collapses them onto one execution.
        base = grid_scenarios(1)
        scenarios = base + base
        plan = plan_partitions(scenarios, num_partitions=2, bist_config=FAST_CONFIG)
        homes = {}
        for partition in plan.partitions:
            for fingerprint in partition.fingerprints:
                homes.setdefault(fingerprint, set()).add(partition.partition_id)
        for fingerprint, partitions in homes.items():
            assert len(partitions) == 1, f"fingerprint {fingerprint} split across partitions"

    def test_grouping_keeps_compiler_batches_intact(self):
        # Two distinct acquisition geometries -> chunks never mix them when
        # the per-partition target is large enough to hold each bucket.
        grid = ScenarioGrid().add_profiles("paper-qpsk-1ghz")
        grid.add_impairments(pa_saturation_sweep((1.0, 2.0)))
        scenarios = grid.build() + grid_scenarios(2)
        plan = plan_partitions(scenarios, num_partitions=2, bist_config=FAST_CONFIG)
        assert sum(len(partition) for partition in plan.partitions) == len(scenarios)

    def test_num_partitions_is_validated(self):
        with pytest.raises(ValidationError, match="num_partitions"):
            plan_partitions(grid_scenarios(2), num_partitions=0, bist_config=FAST_CONFIG)


class TestStoreConsult:
    def test_archived_scenarios_never_reach_a_partition(self, tmp_path):
        scenarios = grid_scenarios(2)
        store = CampaignStore(tmp_path / "store")
        CampaignRunner(bist_config=FAST_CONFIG, store=store).run(scenarios)
        plan = plan_partitions(
            scenarios, num_partitions=2, bist_config=FAST_CONFIG, store=store
        )
        assert not plan.partitions
        assert len(plan.cached) == len(scenarios)
        assert all(outcome.cached for outcome in plan.cached)
        assert all(outcome.worker == "store" for outcome in plan.cached)
        assert [outcome.index for outcome in plan.cached] == list(range(len(scenarios)))

    def test_partial_archive_splits_cached_from_pending(self, tmp_path):
        scenarios = grid_scenarios(4)
        store = CampaignStore(tmp_path / "store")
        CampaignRunner(bist_config=FAST_CONFIG, store=store).run(scenarios[:2])
        plan = plan_partitions(
            scenarios, num_partitions=2, bist_config=FAST_CONFIG, store=store
        )
        assert len(plan.cached) == 2
        assert sum(len(partition) for partition in plan.partitions) == 2
        cached_indices = {outcome.index for outcome in plan.cached}
        pending_indices = {
            index for partition in plan.partitions for index in partition.indices
        }
        assert cached_indices == {0, 1}
        assert pending_indices == {2, 3}

    def test_unfingerprintable_scenarios_still_get_partitioned(self):
        scenarios = (
            ScenarioGrid().add_profiles("paper-qpsk-1ghz", "no-such-profile").build()
        )
        plan = plan_partitions(scenarios, num_partitions=2, bist_config=FAST_CONFIG)
        assert sum(len(partition) for partition in plan.partitions) == 2
        fingerprints = [
            fingerprint
            for partition in plan.partitions
            for fingerprint in partition.fingerprints
        ]
        assert None in fingerprints  # the unknown profile cannot fingerprint
        assert any(fingerprint is not None for fingerprint in fingerprints)
