"""Shared plan structures, the structure cache and stacked evaluation.

The structure cache and :func:`evaluate_stacked` power the campaign
compiler; their contract is bit-identity with the per-plan path under
every sharing/fallback combination, plus honest accounting.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sampling import (
    IdealNonuniformSampler,
    NonuniformReconstructor,
    PlanStructureCache,
    ReconstructionPlan,
    evaluate_stacked,
)
from repro.sampling.nonuniform import delay_upper_bound

NUM_TAPS = 32


@pytest.fixture(scope="module")
def grid(fast_sample_set):
    reconstructor = NonuniformReconstructor(fast_sample_set, num_taps=NUM_TAPS)
    low, high = reconstructor.valid_time_range()
    rng = np.random.default_rng(11)
    return np.sort(rng.uniform(low, high, 160))


def valid_delays(band, count, seed=5):
    bound = delay_upper_bound(band)
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1 * bound, 0.9 * bound, count)


class TestStructureSharing:
    def test_cache_shares_one_structure_across_plans(self, fast_sample_set, grid):
        cache = PlanStructureCache()
        first = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        second = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        assert first.structure is second.structure
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_cached_plan_bit_identical_to_uncached(self, fast_sample_set, grid):
        cache = PlanStructureCache()
        # Warm the cache, then build a plan that reuses the structure.
        ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache)
        cached = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        bare = ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS)
        for delay in valid_delays(fast_sample_set.band, 4):
            assert np.array_equal(cached.evaluate(delay), bare.evaluate(delay))

    def test_different_geometry_gets_different_structures(self, fast_sample_set, grid):
        cache = PlanStructureCache()
        a = ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache)
        b = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS + 2, structure_cache=cache
        )
        c = ReconstructionPlan(
            fast_sample_set, grid[:-1], num_taps=NUM_TAPS, structure_cache=cache
        )
        assert a.structure is not b.structure
        assert a.structure is not c.structure
        assert cache.stats["misses"] == 3

    def test_sample_values_do_not_enter_the_structure(self, fast_sample_set, grid):
        # The structure is sample-independent: an acquisition of a different
        # signal over the same geometry shares it, yet evaluates differently.
        cache = PlanStructureCache()
        plan = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        shifted = fast_sample_set.with_channels(
            2.0 * fast_sample_set.on_grid, 2.0 * fast_sample_set.delayed
        )
        other = ReconstructionPlan(shifted, grid, num_taps=NUM_TAPS, structure_cache=cache)
        assert other.structure is plan.structure
        delay = float(valid_delays(fast_sample_set.band, 1)[0])
        assert np.array_equal(other.evaluate(delay), 2.0 * plan.evaluate(delay))


class TestPlanStructureCacheBudget:
    def test_lru_eviction_over_element_budget(self, fast_sample_set, grid, monkeypatch):
        plan = ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS)
        per_structure = plan.structure.num_elements
        monkeypatch.setattr(PlanStructureCache, "MAX_ELEMENTS", 2 * per_structure)
        cache = PlanStructureCache()
        grids = [grid, grid[:-1], grid[:-2]]
        for times in grids:
            ReconstructionPlan(fast_sample_set, times, num_taps=NUM_TAPS, structure_cache=cache)
        stats = cache.stats
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["elements"] <= 2 * per_structure
        # The full grid's structure (LRU) was evicted; the two shorter remain.
        ReconstructionPlan(fast_sample_set, grids[2], num_taps=NUM_TAPS, structure_cache=cache)
        assert cache.stats["hits"] == 1

    def test_most_recent_entry_survives_even_oversized(self, fast_sample_set, grid, monkeypatch):
        monkeypatch.setattr(PlanStructureCache, "MAX_ELEMENTS", 1)
        cache = PlanStructureCache()
        plan = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        assert cache.stats["entries"] == 1
        reuse = ReconstructionPlan(
            fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache
        )
        assert reuse.structure is plan.structure

    def test_clear_preserves_counters(self, fast_sample_set, grid):
        cache = PlanStructureCache()
        ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache)
        cache.clear()
        stats = cache.stats
        assert stats["entries"] == 0 and stats["elements"] == 0
        assert stats["misses"] == 1


class TestEvaluateStacked:
    def test_shared_structure_rows_match_per_plan_evaluate(self, fast_sample_set, grid):
        cache = PlanStructureCache()
        plans = [
            ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS, structure_cache=cache)
            for _ in range(5)
        ]
        assert all(plan.structure is plans[0].structure for plan in plans)
        delays = valid_delays(fast_sample_set.band, 5)
        stacked = evaluate_stacked(plans, delays)
        assert stacked.shape == (5, grid.size)
        for row, (plan, delay) in zip(stacked, zip(plans, delays)):
            assert np.array_equal(row, plan.evaluate(delay))

    def test_unshared_structures_fall_back_bit_identically(self, fast_sample_set, grid):
        # No cache: every plan owns its structure.
        plans = [
            ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS) for _ in range(3)
        ]
        delays = valid_delays(fast_sample_set.band, 3)
        stacked = evaluate_stacked(plans, delays)
        for row, (plan, delay) in zip(stacked, zip(plans, delays)):
            assert np.array_equal(row, plan.evaluate(delay))

    def test_single_plan_stack(self, fast_sample_set, grid):
        plan = ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS)
        delay = float(valid_delays(fast_sample_set.band, 1)[0])
        stacked = evaluate_stacked([plan], [delay])
        assert np.array_equal(stacked[0], plan.evaluate(delay))

    def test_validation_errors(self, fast_sample_set, grid):
        plan = ReconstructionPlan(fast_sample_set, grid, num_taps=NUM_TAPS)
        short = ReconstructionPlan(fast_sample_set, grid[:-10], num_taps=NUM_TAPS)
        delay = float(valid_delays(fast_sample_set.band, 1)[0])
        with pytest.raises(ValidationError):
            evaluate_stacked([], [])
        with pytest.raises(ValidationError):
            evaluate_stacked([plan, object()], [delay, delay])
        with pytest.raises(ValidationError):
            evaluate_stacked([plan], [delay, delay])
        with pytest.raises(ValidationError):
            evaluate_stacked([plan, short], [delay, delay])

