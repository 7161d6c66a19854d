"""Unit tests for repro.faults.adaptive and repro.faults.stats.

Everything here runs against the synthetic probe backend, so the search
logic and the interval arithmetic are pinned down exactly without touching
the (slow) BIST execution path.  The end-to-end campaign-backend tests
live in test_adaptive_determinism.py and test_adaptive_acceptance.py.
"""

import json
import math

import pytest

from repro.bist.runner import ExecutionBudget
from repro.errors import BudgetExhaustedError, ValidationError
from repro.faults import (
    AdaptiveCampaignResult,
    AdaptiveConfig,
    AdaptivePlanner,
    SyntheticFamily,
    SyntheticProbeBackend,
    ThresholdReport,
)
from repro.faults.stats import normal_quantile, wilson_interval


def sharp_backend(seed=0):
    """Families whose logistic curves are step-like between grid points."""
    return SyntheticProbeBackend(
        [
            SyntheticFamily("step-low", threshold=0.22, steepness=400.0),
            SyntheticFamily("step-mid", threshold=0.47, steepness=400.0),
            SyntheticFamily("step-high", threshold=0.91, steepness=400.0),
            SyntheticFamily("never", threshold=4.0, steepness=400.0),
        ],
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Statistics primitives
# --------------------------------------------------------------------------- #
class TestStats:
    def test_normal_quantile_reference_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-9)
        assert normal_quantile(0.9995) == pytest.approx(3.290526731491926, abs=1e-8)

    def test_normal_quantile_rejects_boundaries(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                normal_quantile(bad)

    def test_wilson_reference_values(self):
        # Canonical 6/6 and 0/6 cases that drive the n=6 early stop.
        low, high = wilson_interval(6, 6)
        assert low == pytest.approx(0.60967, abs=1e-4)
        assert high == 1.0
        low, high = wilson_interval(0, 6)
        assert low == 0.0
        assert high == pytest.approx(0.39033, abs=1e-4)

    def test_interval_contains_point_estimate(self):
        for successes, trials in ((0, 5), (2, 7), (7, 7), (13, 40)):
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_wilson_interval_validation(self):
        with pytest.raises(ValidationError):
            wilson_interval(1, 0)
        with pytest.raises(ValidationError):
            wilson_interval(5, 3)
        with pytest.raises(ValidationError):
            wilson_interval(-1, 3)


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
class TestAdaptiveConfig:
    def test_severity_grid_excludes_lower_anchor(self):
        config = AdaptiveConfig(num_steps=4)
        assert config.severities() == pytest.approx((0.25, 0.5, 0.75, 1.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdaptiveConfig(num_steps=1)
        with pytest.raises(ValidationError):
            AdaptiveConfig(strategy="random-walk")

    def test_round_trip(self):
        config = AdaptiveConfig(num_steps=32, strategy="probabilistic")
        assert AdaptiveConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    #: Settings an earlier AdaptiveConfig.to_dict() wrote, at their defaults then.
    EARLIER_SETTINGS = {
        "min_severity": 0.0,
        "max_severity": 1.0,
        "detection_threshold": 0.5,
        "confidence": 0.95,
        "interval_method": "wilson",
        "verdict_error_rate": 0.1,
        "pba_stop_posterior": 0.95,
        "pba_max_queries": 24,
    }

    def test_earlier_bisection_config_loads(self):
        data = {**AdaptiveConfig(num_steps=8).to_dict(), **self.EARLIER_SETTINGS}
        assert AdaptiveConfig.from_dict(data) == AdaptiveConfig(num_steps=8)

    @pytest.mark.parametrize(
        "changed",
        [
            {"interval_method": "clopper-pearson"},
            {"detection_threshold": 0.6},
            {"confidence": 0.9},
            {"min_severity": 0.2},
        ],
    )
    def test_earlier_config_with_another_setting_is_refused(self, changed):
        data = {**AdaptiveConfig().to_dict(), **self.EARLIER_SETTINGS, **changed}
        with pytest.raises(ValidationError):
            AdaptiveConfig.from_dict(data)

    def test_earlier_probabilistic_config_is_checked_against_its_constants(self):
        config = AdaptiveConfig(strategy="probabilistic")
        # The earlier defaults (one verdict in ten wrong, 24 queries) describe
        # another search than this version runs.
        with pytest.raises(ValidationError):
            AdaptiveConfig.from_dict({**config.to_dict(), **self.EARLIER_SETTINGS})
        current = {
            **self.EARLIER_SETTINGS,
            "verdict_error_rate": AdaptiveConfig.verdict_error_rate,
            "pba_max_queries": AdaptiveConfig.pba_max_queries,
        }
        assert AdaptiveConfig.from_dict({**config.to_dict(), **current}) == config


# --------------------------------------------------------------------------- #
# Bisection search on the synthetic backend
# --------------------------------------------------------------------------- #
class TestBisection:
    def test_thresholds_match_grid_oracle(self):
        backend = sharp_backend()
        config = AdaptiveConfig(num_steps=16)
        planner = AdaptivePlanner(backend, config)
        result = planner.run(["step-low", "step-mid", "step-high"])
        by_family = {threshold.family: threshold for threshold in result.report.thresholds}
        for family in ("step-low", "step-mid", "step-high"):
            found = by_family[family]
            oracle = backend.grid_oracle(family, config)
            assert found.found
            assert found.threshold == pytest.approx(oracle)

    def test_log_cost_vs_grid(self):
        backend = sharp_backend()
        config = AdaptiveConfig(num_steps=16)
        planner = AdaptivePlanner(backend, config)
        threshold = planner.find_threshold("synthetic", "step-mid")
        # Virtual lower bracket: 1 top-endpoint probe + ceil(log2(16)) splits.
        assert threshold.num_probed_severities <= 1 + math.ceil(math.log2(16))
        assert threshold.grid_size == 16
        assert threshold.scenarios_spent < 16 * config.repeats_per_round

    def test_undetectable_family_reports_no_threshold(self):
        planner = AdaptivePlanner(sharp_backend(), AdaptiveConfig(num_steps=16))
        threshold = planner.find_threshold("synthetic", "never")
        assert not threshold.found
        assert threshold.threshold is None
        assert threshold.ci_low is None and threshold.ci_high is None
        # Deciding "undetectable" costs exactly one probed severity (the top).
        assert threshold.num_probed_severities == 1

    def test_ci_brackets_the_threshold(self):
        planner = AdaptivePlanner(sharp_backend(), AdaptiveConfig(num_steps=16))
        threshold = planner.find_threshold("synthetic", "step-mid")
        assert threshold.ci_low < 0.47 <= threshold.ci_high
        assert threshold.ci_high == pytest.approx(threshold.threshold)

    def test_unknown_family_rejected(self):
        planner = AdaptivePlanner(sharp_backend())
        with pytest.raises(ValidationError):
            planner.find_threshold("synthetic", "no-such-family")

    def test_run_validates_family_list(self):
        planner = AdaptivePlanner(sharp_backend())
        with pytest.raises(ValidationError):
            planner.run([])
        with pytest.raises(ValidationError):
            planner.run(["step-mid", "step-mid"])

    def test_report_round_trip(self):
        planner = AdaptivePlanner(sharp_backend(), AdaptiveConfig(num_steps=16))
        report = planner.run(["step-low", "never"]).report
        rebuilt = ThresholdReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.to_dict() == report.to_dict()


# --------------------------------------------------------------------------- #
# Probabilistic bisection
# --------------------------------------------------------------------------- #
class TestProbabilisticBisection:
    def test_agrees_with_oracle_within_one_step(self):
        config = AdaptiveConfig(num_steps=16, strategy="probabilistic")
        step = 1.0 / 16
        for seed in range(5):
            backend = sharp_backend(seed=seed)
            planner = AdaptivePlanner(backend, config)
            threshold = planner.find_threshold("synthetic", "step-mid")
            oracle = backend.grid_oracle("step-mid", config)
            assert threshold.found
            assert abs(threshold.threshold - oracle) <= step + 1e-12

    def test_undetectable_family_reports_no_threshold(self):
        config = AdaptiveConfig(num_steps=16, strategy="probabilistic")
        planner = AdaptivePlanner(sharp_backend(), config)
        threshold = planner.find_threshold("synthetic", "never")
        assert not threshold.found
        assert threshold.posterior_confidence is not None

    def test_query_budget_is_respected(self):
        # A noisy family keeps the posterior spread, so the budget, not the
        # stopping mass, ends the search.
        backend = SyntheticProbeBackend([SyntheticFamily("noisy", threshold=0.5, steepness=2.0)])
        config = AdaptiveConfig(num_steps=16, strategy="probabilistic")
        threshold = AdaptivePlanner(backend, config).find_threshold("synthetic", "noisy")
        assert threshold.scenarios_spent <= AdaptiveConfig.pba_max_queries


# --------------------------------------------------------------------------- #
# Execution budgets
# --------------------------------------------------------------------------- #
class TestExecutionBudget:
    def test_charge_is_all_or_nothing(self):
        budget = ExecutionBudget(5)
        budget.charge(3)
        with pytest.raises(BudgetExhaustedError):
            budget.charge(3)
        # The refused batch must not be partially charged: two remain.
        budget.charge(2)
        with pytest.raises(BudgetExhaustedError):
            budget.charge(1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExecutionBudget(0)
        with pytest.raises(ValidationError):
            ExecutionBudget(4).charge(-1)

    def test_planner_stops_before_overspending(self):
        backend = sharp_backend()
        config = AdaptiveConfig(num_steps=16)  # 3 repeats per round
        planner = AdaptivePlanner(backend, config)
        budget = ExecutionBudget(4)
        with pytest.raises(BudgetExhaustedError):
            planner.find_threshold("synthetic", "step-mid", budget=budget)
        # One full round, second round refused: one execution is left.
        assert backend.scenarios_spent == 3
        budget.charge(1)
        with pytest.raises(BudgetExhaustedError):
            budget.charge(1)


# --------------------------------------------------------------------------- #
# Report plumbing
# --------------------------------------------------------------------------- #
class TestThresholdReport:
    def build(self):
        planner = AdaptivePlanner(sharp_backend(), AdaptiveConfig(num_steps=16))
        return planner.run(["step-low", "step-mid", "never"])

    def test_efficiency_accounting(self):
        report = self.build().report
        assert report.scenarios_spent == sum(
            threshold.scenarios_spent for threshold in report.thresholds
        )
        assert report.scenarios_saved_vs_grid == pytest.approx(
            report.grid_equivalent_scenarios / report.scenarios_spent
        )
        assert report.scenarios_saved_vs_grid > 1.0

    def test_to_text_lists_missing_families(self):
        text = self.build().report.to_text()
        assert "adaptive thresholds" in text
        assert "no detectable severity on the grid: never" in text

    def test_synthetic_result_has_no_campaign_summary(self):
        result = self.build()
        assert result.outcomes == ()
        with pytest.raises(ValidationError):
            result.summary()
