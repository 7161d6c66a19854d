"""Tests for repro.bist.runner: parallel campaign orchestration.

The determinism tests run real (small) BIST executions, serially and on a
process pool, and require bit-identical reports; the grid and error-isolation
tests are cheap plumbing checks.
"""

import os
import pickle
import time

import numpy as np
import pytest

import repro.bist.runner as runner_module

from repro.bist import (
    BistConfig,
    CampaignRunner,
    CampaignScenario,
    CampaignSummary,
    ConverterSpec,
    ScenarioGrid,
    derive_scenario_seed,
    iq_imbalance_sweep,
    pa_saturation_sweep,
    skew_sweep,
)
from repro.bist.runner import ExecutionBudget, ScenarioOutcome
from repro.errors import ConfigurationError, ValidationError
from repro.store import CampaignStore
from repro.transmitter import ImpairmentConfig

#: Small-but-real engine configuration so the execution tests stay fast.
FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def small_grid() -> tuple:
    """A 6-scenario grid: 3 transmitter faults x 2 converter skews."""
    return (
        ScenarioGrid()
        .add_profiles("paper-qpsk-1ghz")
        .add_impairment("nominal", ImpairmentConfig())
        .add_impairments(pa_saturation_sweep([0.75]))
        .add_impairments(iq_imbalance_sweep([(2.5, 15.0)]))
        .add_converters(skew_sweep([0.0, 2e-12]))
        .build()
    )


#: Set by test_transient_worker_death_recovered before patching; module-level
#: so the worker function pickles by reference and forked children see it.
_crash_flag_path = ""


def _crash_once_then_execute(task):
    if task.label == "victim" and not os.path.exists(_crash_flag_path):
        with open(_crash_flag_path, "w") as flag:
            flag.write("crashed")
        os._exit(1)
    return runner_module.__dict__["_original_execute_task"](task)


# Keep a stable reference the crasher can reach even while _execute_task is
# monkeypatched.
runner_module._original_execute_task = runner_module._execute_task


def reports_identical(a, b) -> bool:
    """Bit-identical comparison including the measured spectra."""
    if a.to_dict() != b.to_dict():
        return False
    return np.array_equal(
        a.measurements.spectrum.psd, b.measurements.spectrum.psd
    ) and np.array_equal(
        a.measurements.spectrum.frequencies_hz, b.measurements.spectrum.frequencies_hz
    )


class TestConverterSpec:
    def test_channel_mismatch_fields(self):
        spec = ConverterSpec(channel1_gain_error=0.02, channel1_offset=0.01)
        converter = spec.build(90e6)
        assert converter.channel1.mismatch.gain_error == pytest.approx(0.02)
        assert converter.channel1.mismatch.offset == pytest.approx(0.01)

    def test_picklable(self):
        spec = ConverterSpec(channel1_skew_seconds=2e-12)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestScenarioGrid:
    def test_cartesian_expansion_count(self):
        grid = (
            ScenarioGrid()
            .add_profiles("paper-qpsk-1ghz", "uhf-8psk-400mhz")
            .add_impairments(pa_saturation_sweep([0.5, 0.75, 1.0]))
            .add_converters(skew_sweep([0.0, 1e-12]))
        )
        assert len(grid) == 2 * 3 * 2
        scenarios = grid.build()
        assert len(scenarios) == 12
        assert all(isinstance(s, CampaignScenario) for s in scenarios)

    def test_labels_compose_axes(self):
        scenarios = (
            ScenarioGrid()
            .add_profile("paper-qpsk-1ghz")
            .add_impairment("nominal", ImpairmentConfig())
            .add_converters(skew_sweep([5e-12]))
            .build()
        )
        assert scenarios[0].label == "paper-qpsk-1ghz/nominal/skew-5ps"

    def test_axes_optional(self):
        scenarios = ScenarioGrid().add_profiles("paper-qpsk-1ghz").build()
        assert len(scenarios) == 1
        assert scenarios[0].label == "paper-qpsk-1ghz"
        assert scenarios[0].converter is None

    def test_labels_unique(self):
        grid = (
            ScenarioGrid()
            .add_profiles("paper-qpsk-1ghz")
            .add_impairment("dup", ImpairmentConfig())
            .add_impairment("dup", ImpairmentConfig())
        )
        with pytest.raises(ConfigurationError, match="duplicate label.*'paper-qpsk-1ghz/dup'"):
            grid.build()

    def test_duplicate_error_lists_every_collision(self):
        grid = (
            ScenarioGrid()
            .add_profiles("paper-qpsk-1ghz", "uhf-8psk-400mhz")
            .add_impairment("dup", ImpairmentConfig())
            .add_impairment("dup", ImpairmentConfig())
        )
        with pytest.raises(ConfigurationError) as excinfo:
            grid.build()
        assert "paper-qpsk-1ghz/dup" in str(excinfo.value)
        assert "uhf-8psk-400mhz/dup" in str(excinfo.value)

    def test_empty_profile_axis_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioGrid().build()

    def test_num_symbols_propagates(self):
        scenarios = ScenarioGrid(num_symbols=256).add_profiles("paper-qpsk-1ghz").build()
        assert scenarios[0].num_symbols == 256

    def test_sweep_helpers_label_values(self):
        assert pa_saturation_sweep([0.75])[0][0] == "pa-sat-0.75"
        assert iq_imbalance_sweep([(2.5, 15.0)])[0][0] == "iq-2.5dB-15deg"
        assert skew_sweep([2e-12])[0][0] == "skew-2ps"


class TestSeedDerivation:
    def test_deterministic_and_decorrelated(self):
        a = derive_scenario_seed(2014, 0, "x")
        assert a == derive_scenario_seed(2014, 0, "x")
        assert a != derive_scenario_seed(2014, 1, "x")
        assert a != derive_scenario_seed(2014, 0, "y")
        assert a != derive_scenario_seed(2015, 0, "x")

    def test_none_base_seed_stays_none(self):
        assert derive_scenario_seed(None, 3, "x") is None


class TestRunnerValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ValidationError):
            CampaignRunner(max_workers=0)

    def test_bad_seed_policy_rejected(self):
        with pytest.raises(ValidationError):
            CampaignRunner(seed_policy="chaotic")

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValidationError):
            CampaignRunner().run([])

    def test_non_scenario_rejected(self):
        with pytest.raises(ValidationError):
            CampaignRunner().run(["not a scenario"])

    def test_unpicklable_factory_rejected_for_parallel(self):
        runner = CampaignRunner(
            bist_config=FAST_CONFIG,
            converter_factory=lambda bandwidth: ConverterSpec()(bandwidth),
            max_workers=2,
        )
        with pytest.raises(ConfigurationError):
            runner.run(small_grid())

    def test_bad_budget_rejected_when_fully_cached(self, tmp_path):
        # Nothing executes on a fully cached grid, yet the budget's type is
        # still checked before the store is consulted.
        store = CampaignStore(tmp_path / "store")
        scenarios = small_grid()[:1]
        CampaignRunner(bist_config=FAST_CONFIG, store=store).run(scenarios)
        seen = []
        runner = CampaignRunner(bist_config=FAST_CONFIG, store=store, progress_callback=seen.append)
        with pytest.raises(ValidationError, match="ExecutionBudget"):
            runner.run(scenarios, budget="x")
        assert seen == [], "the store was consulted before the budget was checked"
        budget = ExecutionBudget(1)
        assert runner.run(scenarios, budget=budget).cache_hits == 1
        assert budget._spent == 0


@pytest.mark.slow
class TestRunnerExecution:
    def test_parallel_matches_serial_bit_identical(self):
        scenarios = small_grid()
        serial = CampaignRunner(bist_config=FAST_CONFIG, max_workers=1).run(scenarios)
        parallel = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2).run(scenarios)
        assert not serial.errors and not parallel.errors
        assert [o.label for o in serial.outcomes] == [o.label for o in parallel.outcomes]
        assert len(serial.reports) == len(scenarios)
        for a, b in zip(serial.reports, parallel.reports):
            assert reports_identical(a, b)

    def test_per_scenario_seed_policy_deterministic(self):
        scenarios = small_grid()[:2]
        kwargs = dict(bist_config=FAST_CONFIG, seed_policy="per-scenario")
        first = CampaignRunner(max_workers=1, **kwargs).run(scenarios)
        second = CampaignRunner(max_workers=2, **kwargs).run(scenarios)
        for a, b in zip(first.reports, second.reports):
            assert reports_identical(a, b)
        # The shared policy uses one seed for everything; per-scenario must not.
        shared = CampaignRunner(max_workers=1, bist_config=FAST_CONFIG).run(scenarios)
        assert not reports_identical(first.reports[0], shared.reports[0])

    def test_execution_to_dict_round_trip(self):
        import json

        from repro.bist import CampaignExecution, ScenarioOutcome

        scenarios = [
            CampaignScenario(profile="paper-qpsk-1ghz", label="good"),
            CampaignScenario(profile="no-such-profile", label="bad"),
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        payload = json.loads(json.dumps(execution.to_dict()))
        rebuilt = CampaignExecution.from_dict(payload)
        # The archive preserves successes and captured errors alike, exactly.
        assert rebuilt.to_dict() == execution.to_dict()
        assert [outcome.label for outcome in rebuilt.outcomes] == ["good", "bad"]
        assert rebuilt.outcomes[0].ok and not rebuilt.outcomes[1].ok
        assert rebuilt.errors == execution.errors
        assert np.array_equal(
            rebuilt.outcomes[0].report.measurements.spectrum.psd,
            execution.outcomes[0].report.measurements.spectrum.psd,
        )
        assert rebuilt.summary().to_dict() == execution.summary().to_dict()
        # A single outcome round-trips through its own pair as well.
        outcome = execution.outcomes[0]
        assert ScenarioOutcome.from_dict(outcome.to_dict()).to_dict() == outcome.to_dict()

    def test_error_isolation(self):
        scenarios = [
            CampaignScenario(profile="paper-qpsk-1ghz", label="good"),
            CampaignScenario(profile="no-such-profile", label="bad"),
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        assert len(execution.outcomes) == 2
        good, bad = execution.outcomes
        assert good.ok and good.report.profile_name == "paper-qpsk-1ghz"
        assert not bad.ok and "no-such-profile" in bad.error
        assert "ValidationError" in bad.error
        assert bad.traceback_text
        assert execution.errors == [("bad", bad.error)]

    def test_error_outcome_from_an_exception(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            outcome = ScenarioOutcome.from_exception(3, "label", exc, time.perf_counter(), "w")
            untimed = ScenarioOutcome.from_exception(4, "other", exc, None)
        assert (outcome.index, outcome.label, outcome.worker) == (3, "label", "w")
        assert not outcome.ok and outcome.error == "RuntimeError: boom"
        assert outcome.traceback_text.startswith("Traceback")
        assert "test_error_outcome_from_an_exception" in outcome.traceback_text
        assert outcome.duration_seconds >= 0.0
        assert untimed.duration_seconds == 0.0 and untimed.worker == ""

    def test_error_isolation_parallel(self):
        scenarios = [
            CampaignScenario(profile="no-such-profile", label="bad"),
            CampaignScenario(profile="paper-qpsk-1ghz", label="good"),
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2).run(scenarios)
        assert [o.label for o in execution.outcomes] == ["bad", "good"]
        assert not execution.outcomes[0].ok
        assert execution.outcomes[1].ok

    def test_transient_worker_death_recovered(self, monkeypatch, tmp_path):
        # A worker that dies mid-campaign fails every outstanding future with
        # BrokenProcessPool; the runner must give those scenarios a fresh pool
        # round instead of recording spurious errors.  The crash is transient
        # (first execution only), so everything must eventually succeed.
        global _crash_flag_path
        _crash_flag_path = str(tmp_path / "crashed")
        monkeypatch.setattr(runner_module, "_execute_task", _crash_once_then_execute)
        # Distinct converter seeds keep the fingerprints apart: identical
        # scenarios would be deduplicated onto one execution, and this test
        # needs "victim" to actually reach a worker.
        scenarios = [
            CampaignScenario(
                profile="paper-qpsk-1ghz", label=label, converter=ConverterSpec(seed=seed)
            )
            for seed, label in enumerate(("a", "victim", "b"))
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG, max_workers=2).run(scenarios)
        assert os.path.exists(_crash_flag_path), "the crash never happened"
        assert execution.errors == []
        assert [outcome.label for outcome in execution.outcomes] == ["a", "victim", "b"]
        assert all(outcome.ok for outcome in execution.outcomes)

    def test_progress_callback_sees_every_scenario(self):
        seen = []
        runner = CampaignRunner(
            bist_config=FAST_CONFIG, progress_callback=lambda outcome: seen.append(outcome.label)
        )
        scenarios = small_grid()[:2]
        runner.run(scenarios)
        assert sorted(seen) == sorted(s.resolved_label() for s in scenarios)

    def test_scenario_converter_overrides_factory(self):
        # The per-scenario spec injects a DCDE error the campaign factory lacks;
        # the reconstruction must see the different physical delay.
        scenarios = [
            CampaignScenario(profile="paper-qpsk-1ghz", label="nominal"),
            CampaignScenario(
                profile="paper-qpsk-1ghz",
                label="dcde-fault",
                converter=ConverterSpec(dcde_static_error_seconds=8e-12),
            ),
        ]
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(scenarios)
        nominal, fault = execution.reports
        delta = (
            fault.calibration.true_delay_seconds - nominal.calibration.true_delay_seconds
        )
        assert delta == pytest.approx(8e-12)

    def test_lambda_factory_runs_serially(self):
        # Arbitrary (unpicklable, unfingerprintable) factories stay usable
        # in-process; only the pool and the store need a ConverterSpec.
        execution = CampaignRunner(
            bist_config=FAST_CONFIG,
            converter_factory=lambda bandwidth: ConverterSpec(seed=5)(bandwidth),
        ).run(small_grid()[:2])
        assert not execution.errors
        assert len(execution.reports) == 2
        assert execution.dedup_hits == 0


class TestCampaignSummary:
    def test_aggregates_pass_rates_and_margins(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(small_grid())
        summary = execution.summary()
        assert summary.num_scenarios == 6
        assert summary.num_passed + summary.num_failed == 6
        assert summary.num_errors == 0
        profile = summary.profile("paper-qpsk-1ghz")
        assert profile.num_scenarios == 6
        assert 0.0 <= profile.pass_rate <= 1.0
        assert profile.worst_acpr_margin_db is not None
        assert profile.max_skew_error_ps is not None
        assert summary.max_skew_error_ps >= summary.mean_skew_error_ps > 0.0
        text = summary.to_text()
        assert "paper-qpsk-1ghz" in text
        assert "pass rate" in text
        payload = summary.to_dict()
        assert payload["profiles"]["paper-qpsk-1ghz"]["num_scenarios"] == 6

    def test_counts_errors(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(
            [
                CampaignScenario(profile="paper-qpsk-1ghz", label="good"),
                CampaignScenario(profile="no-such-profile", label="bad"),
            ]
        )
        summary = execution.summary()
        assert summary.num_scenarios == 2
        assert summary.num_errors == 1
        assert summary.errors[0][0] == "bad"
        assert "ERROR bad" in summary.to_text()
        # The table keeps the errored row; failures() lists failed reports only.
        rows = execution.summary_table().splitlines()
        assert rows[-1].split() == ["bad", "error"]
        assert "bad" not in execution.failures()

    def test_failures_and_table_agree_with_the_verdicts(self):
        execution = CampaignRunner(bist_config=FAST_CONFIG).run(small_grid())
        summary = execution.summary()
        failures = execution.failures()
        assert len(failures) == summary.num_failed
        assert execution.all_passed == (not failures)
        header, rule, *rows = execution.summary_table().splitlines()
        assert header.split()[:2] == ["scenario", "verdict"]
        assert set(rule) == {"-"} and len(rule) == len(header)
        assert [row.split()[0] for row in rows] == [o.label for o in execution.outcomes]
        for row, (label, report) in zip(rows, execution.entries):
            assert row.split()[1] == report.verdict.value
            assert (label in failures) == (not report.passed)
            # FAST_CONFIG disables EVM, so the column reads n/a.
            assert row.split()[-1] == "n/a"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CampaignSummary.from_entries([], errors=())
