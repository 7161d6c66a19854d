"""Campaign-compiler tests: grouping, batched execution and safety nets.

The compiler's contract is strictly "same results, less work": every test
here pins either the grouping rules (what is allowed to batch) or the
bit-identity of compiled outcomes against the serial/pooled reference
paths.
"""

import json

import numpy as np
import pytest

from repro.bist import (
    BistConfig,
    CampaignCompiler,
    CampaignRunner,
    CampaignScenario,
    CompilerStats,
    ScenarioGrid,
    TransmitterBist,
    execute_scenario,
    pa_saturation_sweep,
    skew_sweep,
)
from repro.bist.runner import CampaignExecution, ExecutionBudget
from repro.errors import BudgetExhaustedError, ValidationError
from repro.sampling import PlanStructureCache
from repro.store import CampaignStore
from repro.transmitter import ImpairmentConfig

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)

#: The smallest fast config whose paper-profile record still measures EVM
#: (at 128 fast samples the demodulator has too few clean symbols).
EVM_CONFIG = BistConfig(
    num_samples_fast=256,
    num_samples_slow=128,
    lms_max_iterations=25,
    num_cost_points=60,
)


def severity_sweep(num: int = 4, profile: str = "paper-qpsk-1ghz"):
    """A homogeneous group: one profile, one fault axis, varying severity."""
    return (
        ScenarioGrid()
        .add_profile(profile)
        .add_converters(skew_sweep(np.linspace(0.0, 3e-12, num)))
        .build()
    )


class RecordingCache(PlanStructureCache):
    """A structure cache that logs ``(grid points, hit)`` per lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = []

    def lookup(self, key):
        structure = super().lookup(key)
        self.lookups.append((key[1], structure is not None))
        return structure


def build_tasks(scenarios, **runner_kwargs):
    runner = CampaignRunner(bist_config=FAST_CONFIG, **runner_kwargs)
    return runner._build_tasks(scenarios)


class TestGrouping:
    def test_homogeneous_sweep_forms_one_group(self):
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(severity_sweep(4)))
        assert len(groups) == 1
        assert len(groups[0]) == 4
        assert remainder == []

    def test_heterogeneous_profiles_fall_back_entirely(self):
        scenarios = [
            CampaignScenario(profile="paper-qpsk-1ghz", label="a"),
            CampaignScenario(profile="uhf-8psk-400mhz", label="b"),
            CampaignScenario(profile="narrowband-vhf-bpsk", label="c"),
        ]
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(scenarios))
        assert groups == []
        assert [task.label for task in remainder] == ["a", "b", "c"]
        assert compiler.stats.scenarios_pooled == 3

    def test_singleton_buckets_join_the_remainder(self):
        # Two skew scenarios share geometry; the lone 8psk one does not.
        scenarios = list(severity_sweep(2)) + [
            CampaignScenario(profile="uhf-8psk-400mhz", label="odd-one-out")
        ]
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(scenarios))
        assert len(groups) == 1 and len(groups[0]) == 2
        assert [task.label for task in remainder] == ["odd-one-out"]

    def test_mixed_ofdm_and_single_carrier_split_into_groups(self):
        grid = (
            ScenarioGrid()
            .add_profiles("paper-qpsk-1ghz", "ofdm-uhf-qpsk-400mhz")
            .add_converters(skew_sweep([0.0, 2e-12]))
        )
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(grid.build()))
        assert len(groups) == 2
        assert sorted(len(group) for group in groups) == [2, 2]
        assert remainder == []
        # No group mixes the two waveform families.
        for group in groups:
            profiles = {task.scenario.profile for task in group}
            assert len(profiles) == 1

    def test_impairment_axis_does_not_split_a_group(self):
        # Transmitter impairments change sample values, not acquisition
        # geometry, so a PA severity sweep is one group.
        grid = (
            ScenarioGrid()
            .add_profile("paper-qpsk-1ghz")
            .add_impairment("nominal", ImpairmentConfig())
            .add_impairments(pa_saturation_sweep([0.75, 1.5]))
        )
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(grid.build()))
        assert len(groups) == 1 and len(groups[0]) == 3
        assert remainder == []

    def test_per_scenario_seeds_do_not_split_a_group(self):
        tasks = build_tasks(severity_sweep(3), seed_policy="per-scenario")
        seeds = {task.seed for task in tasks}
        assert len(seeds) == 3, "per-scenario policy should decorrelate seeds"
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(tasks)
        assert len(groups) == 1 and remainder == []

    def test_unresolvable_scenario_goes_to_the_remainder(self):
        scenarios = list(severity_sweep(2)) + [
            CampaignScenario(profile="no-such-profile", label="bad")
        ]
        compiler = CampaignCompiler()
        groups, remainder = compiler.group(build_tasks(scenarios))
        assert len(groups) == 1
        assert [task.label for task in remainder] == ["bad"]

    def test_group_rejects_non_tasks(self):
        with pytest.raises(ValidationError):
            CampaignCompiler().group([object()])


class TestCompiledExecution:
    def test_compiled_outcomes_bit_identical_to_serial_and_pooled(self):
        # The tentpole safety net: serial == pooled == compiled, exactly.
        scenarios = severity_sweep(4)
        serial = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        pooled = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2).run(scenarios)
        compiled = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios, compile=True)
        assert all(outcome.ok for outcome in serial.outcomes)
        for reference, candidate in ((pooled, compiled), (serial, compiled)):
            for a, b in zip(reference.outcomes, candidate.outcomes):
                assert a.label == b.label
                assert a.report.to_dict() == b.report.to_dict()
        assert all(
            outcome.worker.startswith("compiled-pid-") for outcome in compiled.outcomes
        )
        stats = compiled.compiler_stats
        assert stats.groups_formed == 1
        assert stats.scenarios_batched == 4
        assert stats.scenarios_pooled == 0
        assert stats.structure_cache["hits"] > 0

    def test_compiled_run_with_heterogeneous_remainder(self):
        # Two batchable scenarios plus one lone profile: the compiler takes
        # the group, the remainder flows through the ordinary serial path,
        # and submission order is preserved in the outcomes.
        scenarios = [
            CampaignScenario(profile="uhf-8psk-400mhz", label="lone"),
        ] + list(severity_sweep(2))
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios, compile=True)
        assert [outcome.ok for outcome in execution.outcomes] == [True, True, True]
        assert execution.outcomes[0].label == "lone"
        assert execution.outcomes[0].worker.startswith("pid-")
        assert execution.outcomes[1].worker.startswith("compiled-pid-")
        stats = execution.compiler_stats
        assert stats.scenarios_batched == 2
        assert stats.scenarios_pooled == 1

    @pytest.mark.parametrize("profile", ["paper-qpsk-1ghz", "ofdm-uhf-qpsk-400mhz"])
    def test_compiled_equals_serial_with_evm_enabled(self, profile):
        # One dense render feeds the spectrum and, for OFDM, the EVM too;
        # the single-carrier EVM renders its own grid.  Both share the cache.
        scenarios = severity_sweep(3, profile=profile)
        serial = CampaignRunner(bist_config=EVM_CONFIG).run(scenarios)
        compiled = CampaignRunner(bist_config=EVM_CONFIG).run(scenarios, compile=True)
        assert compiled.compiler_stats.scenarios_batched == 3
        assert compiled.compiler_stats.structure_cache["hits"] > 0
        for a, b in zip(serial.outcomes, compiled.outcomes):
            assert a.report.measurements.evm_percent is not None
            assert a.report.to_dict() == b.report.to_dict()
            assert b.worker.startswith("compiled-pid-")
        if profile.startswith("ofdm"):
            assert all(
                outcome.report.measurements.per_subcarrier_evm_percent is not None
                for outcome in compiled.outcomes
            )

    def test_execute_scenario_with_a_shared_cache_equals_without(self):
        cache = RecordingCache()
        for scenario in severity_sweep(2):
            cache.lookups = []
            cached = execute_scenario(scenario, EVM_CONFIG, plan_structure_cache=cache)
            assert cached.to_dict() == execute_scenario(scenario, EVM_CONFIG).to_dict()
            # Only the two cost plans look a structure up; the spectrum and
            # EVM renders keep none.
            assert [points for points, _ in cache.lookups] == [EVM_CONFIG.num_cost_points] * 2

    def test_scenario_raising_after_calibration_errors_alone(self, monkeypatch):
        # The second scenario of the group fails in its evaluation step,
        # after its calibration and renders went through the shared cache;
        # its neighbours still match the serial path bit for bit.
        scenarios = severity_sweep(3)
        serial = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        evaluate = TransmitterBist._evaluate
        calls = []

        def evaluate_failing_second(self, measurements):
            calls.append(measurements)
            if len(calls) == 2:
                raise RuntimeError("injected failure after calibration")
            return evaluate(self, measurements)

        monkeypatch.setattr(TransmitterBist, "_evaluate", evaluate_failing_second)
        compiled = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios, compile=True)
        assert [outcome.ok for outcome in compiled.outcomes] == [True, False, True]
        failed = compiled.outcomes[1]
        assert failed.error == "RuntimeError: injected failure after calibration"
        assert failed.worker.startswith("compiled-pid-")
        assert compiled.compiler_stats.scenarios_batched == 3
        for index in (0, 2):
            assert (
                compiled.outcomes[index].report.to_dict()
                == serial.outcomes[index].report.to_dict()
            )

    def test_execute_group_isolates_per_scenario_errors(self):
        # An unresolvable scenario inside a group (only reachable by calling
        # execute_group directly) errors alone; its neighbours succeed.
        scenarios = list(severity_sweep(2)) + [
            CampaignScenario(profile="no-such-profile", label="bad")
        ]
        outcomes = CampaignCompiler().execute_group(build_tasks(scenarios))
        assert [outcome.ok for outcome in outcomes] == [True, True, False]
        assert "no-such-profile" in outcomes[-1].error
        assert outcomes[-1].traceback_text

    def test_compiled_run_serves_and_feeds_the_store(self, tmp_path):
        scenarios = severity_sweep(3)
        store = CampaignStore(tmp_path / "store")
        first = CampaignRunner(bist_config=FAST_CONFIG, store=store).run(
            scenarios, compile=True
        )
        assert first.cache_hits == 0
        second = CampaignRunner(bist_config=FAST_CONFIG, store=store).run(
            scenarios, compile=True
        )
        assert second.cache_hits == 3
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.report.to_dict() == b.report.to_dict()

    def test_budget_charged_per_scenario_not_per_group(self):
        scenarios = severity_sweep(4)
        with pytest.raises(BudgetExhaustedError):
            CampaignRunner(bist_config=FAST_CONFIG).run(
                scenarios, budget=ExecutionBudget(3), compile=True
            )
        budget = ExecutionBudget(4)
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            scenarios, budget=budget, compile=True
        )
        assert all(outcome.ok for outcome in execution.outcomes)
        assert budget._spent == budget._max_scenarios

    def test_progress_callback_fires_for_compiled_scenarios(self):
        seen = []
        runner = CampaignRunner(
            bist_config=FAST_CONFIG,
            progress_callback=lambda outcome: seen.append(outcome.label),
        )
        scenarios = severity_sweep(3)
        runner.run(scenarios, compile=True)
        assert sorted(seen) == sorted(s.resolved_label() for s in scenarios)


class TestCompilerStats:
    def test_round_trip(self):
        stats = CompilerStats(
            groups_formed=2,
            scenarios_batched=7,
            scenarios_pooled=1,
            structure_cache={"hits": 5, "misses": 2, "evictions": 0},
        )
        payload = json.loads(json.dumps(stats.to_dict()))
        assert CompilerStats.from_dict(payload) == stats
        assert CompilerStats.from_dict({}) == CompilerStats()

    def test_sum_adds_every_counter(self):
        first = CompilerStats(1, 2, 3, {"hits": 4, "misses": 1})
        second = CompilerStats(2, 3, 0, {"hits": 1, "evictions": 2})
        assert sum([first, second], CompilerStats()) == CompilerStats(
            3, 5, 3, {"hits": 5, "misses": 1, "evictions": 2}
        )

    def test_execution_round_trip_preserves_compiler_stats(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            severity_sweep(2), compile=True
        )
        assert execution.compiler_stats is not None
        payload = json.loads(json.dumps(execution.to_dict()))
        rebuilt = CampaignExecution.from_dict(payload)
        assert rebuilt.compiler_stats == execution.compiler_stats
        assert rebuilt.to_dict() == execution.to_dict()

    def test_summary_reports_compiler_line(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            severity_sweep(2), compile=True
        )
        summary = execution.summary()
        assert summary.sections == {"compiler": execution.compiler_stats.to_dict()}
        text = summary.to_text()
        assert "campaign compiler: 1 group(s), 2 batched, 0 pooled" in text
        payload = summary.to_dict()
        assert payload["sections"]["compiler"]["scenarios_batched"] == 2

    def test_uncompiled_run_has_no_compiler_stats(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(severity_sweep(2))
        assert execution.compiler_stats is None
        assert "compiler" not in execution.summary().sections
        assert "campaign compiler" not in execution.summary().to_text()


class TestSharedStructureCache:
    def test_group_execution_populates_the_cache(self):
        compiler = CampaignCompiler()
        outcomes = compiler.execute_group(build_tasks(severity_sweep(3)))
        assert all(outcome.ok for outcome in outcomes)
        stats = compiler.structure_cache.stats
        # Cost-function plans and dense grids re-use structures across the
        # group: every scenario after the first should hit.
        assert stats["hits"] > 0
        assert stats["entries"] >= 1

    def test_each_compiler_starts_with_its_own_empty_cache(self):
        # One compiler serves one run: structures never leak into the next.
        first = CampaignCompiler()
        first.execute_group(build_tasks(severity_sweep(2)))
        second = CampaignCompiler()
        assert second.structure_cache is not first.structure_cache
        assert first.structure_cache.stats["entries"] >= 1
        assert second.structure_cache.stats["entries"] == 0
