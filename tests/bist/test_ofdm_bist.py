"""End-to-end BIST of the OFDM waveform family.

Covers the acceptance path of the multicarrier subsystem: a full
acquire -> skew-estimate -> measure -> evaluate run producing per-subcarrier
EVM, bit-identical serial/parallel campaign execution over an OFDM x fault
grid, store round-tripping of OFDM outcomes, and fault detectability under
OFDM with the existing dictionary machinery.
"""

import json

import numpy as np
import pytest

from repro.bist import (
    BistConfig,
    CampaignRunner,
    CampaignScenario,
    ScenarioGrid,
    execute_scenario,
    scenario_bist_config,
    scenario_num_samples_fast,
)
from repro.bist.report import BistReport, Verdict
from repro.bist.runner import CampaignExecution
from repro.faults import FaultCampaign, FilterDriftFault, IqImbalanceFault
from repro.signals import get_profile, list_profiles
from repro.transmitter import ImpairmentConfig

#: Reduced-but-complete engine settings (EVM measured, all checks active).
FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=True,
)

OFDM_PROFILES = [name for name in list_profiles() if get_profile(name).family == "ofdm"]


def run_nominal(profile_name: str) -> BistReport:
    return execute_scenario(CampaignScenario(profile=profile_name), FAST_CONFIG)


class TestOfdmEndToEnd:
    def test_ofdm_profiles_exist(self):
        assert len(OFDM_PROFILES) >= 2

    @pytest.mark.parametrize("profile_name", OFDM_PROFILES)
    def test_nominal_ofdm_bist_passes_with_per_subcarrier_evm(self, profile_name):
        profile = get_profile(profile_name)
        report = run_nominal(profile_name)
        assert report.passed, report.to_text()
        measurements = report.measurements
        assert measurements.evm_percent is not None
        per_subcarrier = measurements.per_subcarrier_evm_percent
        assert per_subcarrier is not None
        assert len(per_subcarrier) == profile.ofdm.num_subcarriers
        assert len(measurements.subcarrier_indices) == profile.ofdm.num_subcarriers
        assert all(evm > 0.0 for evm in per_subcarrier)
        # Aggregate EVM lies within the per-subcarrier envelope.
        assert min(per_subcarrier) <= measurements.evm_percent <= max(per_subcarrier)
        assert measurements.spectral_flatness_db is not None
        assert report.check("spectral_flatness").verdict is Verdict.PASS
        assert report.check("evm").verdict is Verdict.PASS
        assert report.check("spectral_mask").verdict is Verdict.PASS

    def test_single_carrier_reports_carry_no_subcarrier_fields(self):
        report = execute_scenario(
            CampaignScenario(profile="paper-qpsk-1ghz"), FAST_CONFIG
        )
        assert report.measurements.per_subcarrier_evm_percent is None
        assert report.measurements.subcarrier_indices is None
        assert report.measurements.spectral_flatness_db is None

    def test_ofdm_report_round_trips_through_json(self):
        report = run_nominal(OFDM_PROFILES[0])
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = BistReport.from_dict(data)
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.measurements.per_subcarrier_evm_percent == pytest.approx(
            report.measurements.per_subcarrier_evm_percent
        )

    def test_acquisition_window_is_sized_in_whole_ofdm_symbols(self):
        profile = get_profile(OFDM_PROFILES[0])
        config = scenario_bist_config(CampaignScenario(profile=profile), FAST_CONFIG)
        assert config.num_samples_fast > FAST_CONFIG.num_samples_fast
        assert config.num_samples_fast == scenario_num_samples_fast(
            profile, config.acquisition_bandwidth_hz, FAST_CONFIG
        )
        # Single-carrier profiles keep the configured window.
        sc_config = scenario_bist_config(
            CampaignScenario(profile="paper-qpsk-1ghz"), FAST_CONFIG
        )
        assert sc_config.num_samples_fast == FAST_CONFIG.num_samples_fast


class TestOfdmFaultDetection:
    def test_iq_imbalance_under_ofdm_raises_per_subcarrier_evm(self):
        nominal = run_nominal("ofdm-uhf-qpsk-400mhz")
        fault = IqImbalanceFault(severity=1.0)
        faulty = execute_scenario(
            fault.apply_scenario(
                CampaignScenario(profile="ofdm-uhf-qpsk-400mhz"),
                label="ofdm-uhf-qpsk-400mhz/iq",
            ),
            FAST_CONFIG,
        )
        assert not faulty.passed
        assert faulty.measurements.evm_percent > 5.0 * nominal.measurements.evm_percent
        assert max(faulty.measurements.per_subcarrier_evm_percent) > max(
            nominal.measurements.per_subcarrier_evm_percent
        )

    def test_filter_drift_under_ofdm_shows_up_as_flatness(self):
        fault = FilterDriftFault(severity=1.0)
        faulty = execute_scenario(
            fault.apply_scenario(
                CampaignScenario(profile="ofdm-uhf-qpsk-400mhz"),
                label="ofdm-uhf-qpsk-400mhz/filter",
            ),
            FAST_CONFIG,
        )
        profile = get_profile("ofdm-uhf-qpsk-400mhz")
        assert faulty.measurements.spectral_flatness_db > profile.flatness_limit_db
        assert faulty.check("spectral_flatness").verdict is Verdict.FAIL
        # The edge subcarriers take the brunt of a narrowed output filter.
        per_subcarrier = np.asarray(faulty.measurements.per_subcarrier_evm_percent)
        half = len(per_subcarrier) // 2
        innermost = per_subcarrier[half - 2 : half + 2]
        edges = np.array([per_subcarrier[0], per_subcarrier[-1]])
        assert np.min(edges) > 2.0 * np.max(innermost)

    def test_fault_dictionary_detects_iq_imbalance_under_ofdm(self):
        campaign = FaultCampaign(
            profiles=["ofdm-uhf-qpsk-400mhz"],
            faults=[IqImbalanceFault(severity=1.0)],
            bist_config=FAST_CONFIG,
            num_repeats=2,
            num_reference=2,
        )
        dictionary = campaign.run().dictionary()
        assert dictionary.coverage().probabilities["ofdm-uhf-qpsk-400mhz/iq-imbalance-s1"] == 1.0
        assert dictionary.coverage().coverage == 1.0
        assert dictionary.false_alarm_rate() == 0.0


class TestOfdmCampaignDeterminism:
    def _grid_execution(self, max_workers: int) -> CampaignExecution:
        grid = (
            ScenarioGrid()
            .add_profiles(*OFDM_PROFILES)
            .add_impairment("nominal", ImpairmentConfig())
            .add_impairment(
                "iq-imbalance",
                IqImbalanceFault(severity=1.0).apply_transmitter(ImpairmentConfig()),
            )
        )
        runner = CampaignRunner(
            bist_config=FAST_CONFIG,
            max_workers=max_workers,
            seed_policy="per-scenario",
        )
        return runner.run(grid.build())

    @pytest.mark.slow
    def test_serial_equals_parallel_bit_identical_for_ofdm_fault_grid(self):
        serial = self._grid_execution(max_workers=1)
        parallel = self._grid_execution(max_workers=2)
        assert [outcome.label for outcome in serial.outcomes] == [
            outcome.label for outcome in parallel.outcomes
        ]
        assert not serial.errors, serial.errors
        # Bit-identical reports, PSD arrays and per-subcarrier EVM included
        # (wall clocks and worker pids legitimately differ).  The boolean
        # comparison keeps pytest from diffing megabytes of JSON on failure.
        for serial_outcome, parallel_outcome in zip(serial.outcomes, parallel.outcomes):
            identical = json.dumps(
                serial_outcome.report.to_dict(), sort_keys=True
            ) == json.dumps(parallel_outcome.report.to_dict(), sort_keys=True)
            assert identical, f"report drift in {serial_outcome.label!r}"

    def test_ofdm_outcomes_round_trip_through_campaign_store(self, tmp_path):
        from repro.store import CampaignStore

        store = CampaignStore(tmp_path / "store")
        scenarios = (CampaignScenario(profile="ofdm-uhf-qpsk-400mhz"),)
        runner = CampaignRunner(bist_config=FAST_CONFIG, store=store)
        first = runner.run(scenarios)
        assert first.cache_hits == 0 and first.cache_misses == 1
        resumed = CampaignRunner(bist_config=FAST_CONFIG, store=store).run(scenarios)
        assert resumed.cache_hits == 1 and resumed.cache_misses == 0
        assert resumed.outcomes[0].worker == "store"
        assert (
            resumed.outcomes[0].report.to_dict() == first.outcomes[0].report.to_dict()
        )
