"""Statistical acceptance tests for the adaptive threshold planner.

The synthetic sections sweep >= 20 seeds over >= 5 analytic fault
families and assert the subsystem's headline claims: the adaptively
located threshold agrees with the exhaustive-grid oracle to within one
severity step, the reported confidence bracket actually covers the true
threshold, the designed-undetectable control reports "no threshold
found", and the search spends >= 5x fewer scenarios than the grid.  The
final section repeats the oracle-agreement check against the real BIST
execution path on a coarse grid.

Every test is deterministic: the synthetic backend hashes (seed, family,
severity, repeat) into its verdicts and the BIST backend derives
per-scenario seeds from labels, so reruns are bit-identical.
"""

import math

import pytest

from repro.bist import BistConfig
from repro.faults import (
    AdaptiveConfig,
    AdaptivePlanner,
    CampaignProbeBackend,
    SyntheticFamily,
    SyntheticProbeBackend,
    TestLimits,
)
from repro.faults.coverage import DETECTION_THRESHOLD

SEEDS = range(20)

#: Five step-like families spread over the severity axis ...
SHARP_FAMILIES = [
    SyntheticFamily("sharp-a", threshold=0.13, steepness=400.0),
    SyntheticFamily("sharp-b", threshold=0.28, steepness=400.0),
    SyntheticFamily("sharp-c", threshold=0.47, steepness=400.0),
    SyntheticFamily("sharp-d", threshold=0.66, steepness=400.0),
    SyntheticFamily("sharp-e", threshold=0.84, steepness=400.0),
]
#: ... a family with genuinely noisy verdicts near its threshold ...
NOISY = SyntheticFamily("noisy", threshold=0.47, steepness=25.0)
#: ... and a control whose threshold sits beyond the grid.
UNDETECTABLE = SyntheticFamily("undetectable", threshold=2.0, steepness=400.0)

CONFIG = AdaptiveConfig(num_steps=16)
STEP = (CONFIG.max_severity - CONFIG.min_severity) / CONFIG.num_steps


def backend(seed):
    return SyntheticProbeBackend(
        SHARP_FAMILIES + [NOISY, UNDETECTABLE], seed=seed
    )


@pytest.mark.statistical
class TestOracleAgreement:
    def test_five_families_match_oracle_over_seeds(self):
        for seed in SEEDS:
            synthetic = backend(seed)
            planner = AdaptivePlanner(synthetic, CONFIG)
            report = planner.run([family.name for family in SHARP_FAMILIES]).report
            by_family = {threshold.family: threshold for threshold in report.thresholds}
            for family in SHARP_FAMILIES:
                oracle = synthetic.grid_oracle(family.name, CONFIG)
                found = by_family[family.name]
                assert found.found, (seed, family.name)
                assert abs(found.threshold - oracle) <= STEP + 1e-12, (
                    seed,
                    family.name,
                    found.threshold,
                    oracle,
                )

    def test_noisy_family_within_one_step_over_seeds(self):
        for seed in SEEDS:
            synthetic = backend(seed)
            planner = AdaptivePlanner(synthetic, CONFIG)
            found = planner.find_threshold("synthetic", "noisy")
            oracle = synthetic.grid_oracle("noisy", CONFIG)
            assert found.found, seed
            assert abs(found.threshold - oracle) <= STEP + 1e-12, (
                seed,
                found.threshold,
                oracle,
            )

    def test_probabilistic_strategy_within_one_step_over_seeds(self):
        # The noisy family flips verdicts ~17% of the time one step off its
        # threshold, so the Horstein posterior must assume a verdict error
        # rate at least that large (AdaptiveConfig.verdict_error_rate).
        config = AdaptiveConfig(num_steps=16, strategy="probabilistic")
        assert 1.0 / (1.0 + math.exp(NOISY.steepness * STEP)) < config.verdict_error_rate
        for seed in SEEDS:
            synthetic = backend(seed)
            planner = AdaptivePlanner(synthetic, config)
            found = planner.find_threshold("synthetic", "noisy")
            oracle = synthetic.grid_oracle("noisy", config)
            assert found.found, seed
            assert abs(found.threshold - oracle) <= STEP + 1e-12, (
                seed,
                found.threshold,
                oracle,
            )


@pytest.mark.statistical
class TestConfidenceCoverage:
    def test_bracket_covers_true_threshold(self):
        """The (ci_low, ci_high] bracket must cover the true (continuous)
        threshold in at least 80% of seeds for the noisy family and always
        for the step-like ones."""
        noisy_hits = 0
        for seed in SEEDS:
            planner = AdaptivePlanner(backend(seed), CONFIG)
            for family in SHARP_FAMILIES:
                found = planner.find_threshold("synthetic", family.name)
                assert found.ci_low < family.threshold <= found.ci_high, (
                    seed,
                    family.name,
                )
            found = planner.find_threshold("synthetic", "noisy")
            if found.found and found.ci_low < NOISY.threshold <= found.ci_high:
                noisy_hits += 1
        assert noisy_hits >= 0.8 * len(SEEDS), noisy_hits


@pytest.mark.statistical
class TestUndetectableControl:
    def test_no_threshold_found_for_every_seed(self):
        for seed in SEEDS:
            for strategy in ("bisection", "probabilistic"):
                config = AdaptiveConfig(num_steps=16, strategy=strategy)
                planner = AdaptivePlanner(backend(seed), config)
                found = planner.find_threshold("synthetic", "undetectable")
                assert not found.found, (seed, strategy)
                assert found.threshold is None


@pytest.mark.statistical
class TestEfficiency:
    def test_five_times_fewer_scenarios_than_grid(self):
        config = AdaptiveConfig(num_steps=32)
        for seed in SEEDS:
            planner = AdaptivePlanner(backend(seed), config)
            report = planner.run([family.name for family in SHARP_FAMILIES]).report
            assert report.scenarios_saved_vs_grid >= 5.0, (
                seed,
                report.scenarios_saved_vs_grid,
            )

    def test_search_cost_is_logarithmic(self):
        for num_steps in (8, 16, 32, 64):
            planner = AdaptivePlanner(backend(0), AdaptiveConfig(num_steps=num_steps))
            found = planner.find_threshold("synthetic", "sharp-c")
            assert found.num_probed_severities <= 1 + math.ceil(math.log2(num_steps))


# --------------------------------------------------------------------------- #
# Real execution path
# --------------------------------------------------------------------------- #
#: >= 5 fault families, incl. the known-undetectable DCDE control.
REAL_FAMILIES = [
    "pa-compression",
    "iq-imbalance",
    "lo-leakage",
    "tiadc-skew",
    "filter-drift",
    "dcde-error",
]

FAST_CONFIG = BistConfig(
    num_samples_fast=192,
    num_samples_slow=96,
    lms_max_iterations=20,
    num_cost_points=40,
    measure_evm_enabled=False,
    seed=99,
)

#: Explicit metric bounds instead of the BIST's own verdict: at these tiny
#: engine settings the verdict is marginal enough to flip with the noise
#: realisation, which would violate the monotone-detection assumption the
#: bisection (and the grid oracle) relies on.
LIMITS = TestLimits(
    use_bist_verdict=False,
    max_acpr_db=-35.0,
    max_occupied_bandwidth_hz=15.0e6,
    max_skew_deviation_ps=20.0,
)

#: Coarse grid so each family costs a handful of real BIST runs.
REAL_CONFIG = AdaptiveConfig(num_steps=4, repeats_per_round=2, max_rounds_per_probe=1)
REAL_STEP = 1.0 / REAL_CONFIG.num_steps


def real_backend():
    return CampaignProbeBackend(
        ["paper-qpsk-1ghz"],
        bist_config=FAST_CONFIG,
        limits=LIMITS,
        max_workers=1,
    )


@pytest.fixture(scope="module")
def real_search():
    search_backend = real_backend()
    planner = AdaptivePlanner(search_backend, REAL_CONFIG)
    result = planner.run(REAL_FAMILIES)
    # Exhaustive-grid oracle through the *same* backend: identical labels
    # derive identical per-scenario seeds, so shared severities reproduce
    # the search's verdicts exactly.
    oracle = {}
    for family in REAL_FAMILIES:
        oracle[family] = None
        for severity in REAL_CONFIG.severities():
            flags = search_backend.probe(
                "paper-qpsk-1ghz",
                family,
                severity,
                REAL_CONFIG.repeats_per_round,
                start=0,
            )
            rate = sum(flags) / len(flags)
            if oracle[family] is None and rate >= DETECTION_THRESHOLD:
                oracle[family] = severity
    return result, oracle


@pytest.mark.slow
@pytest.mark.statistical
class TestRealBackendAcceptance:
    def test_adaptive_matches_exhaustive_grid(self, real_search):
        result, oracle = real_search
        by_family = {threshold.family: threshold for threshold in result.report.thresholds}
        for family in REAL_FAMILIES:
            found = by_family[family]
            if oracle[family] is None:
                assert not found.found, family
            else:
                assert found.found, family
                assert abs(found.threshold - oracle[family]) <= REAL_STEP + 1e-12, (
                    family,
                    found.threshold,
                    oracle[family],
                )

    def test_dcde_control_reports_no_threshold(self, real_search):
        result, _ = real_search
        (found,) = [t for t in result.report.thresholds if t.family == "dcde-error"]
        assert not found.found
        assert found.threshold is None

    def test_cheaper_than_exhaustive_grid(self, real_search):
        result, _ = real_search
        grid_cost = (
            len(REAL_FAMILIES) * REAL_CONFIG.num_steps * REAL_CONFIG.repeats_per_round
        )
        assert result.report.scenarios_spent < grid_cost

    def test_campaign_summary_carries_efficiency(self, real_search):
        result, _ = real_search
        summary = result.summary()
        assert summary.num_errors == 0
        assert summary.sections["adaptive"]["scenarios_saved_vs_grid"] == pytest.approx(
            result.report.scenarios_saved_vs_grid
        )
