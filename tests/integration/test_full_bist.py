"""End-to-end BIST integration: campaigns across profiles and fault injection."""

import pytest

from repro.bist import (
    BistConfig,
    CampaignRunner,
    CampaignScenario,
    ConverterSpec,
    Verdict,
)
from repro.rf import IqImbalance, RappAmplifier
from repro.transmitter import ImpairmentConfig


def small_bist_config():
    return BistConfig(
        num_samples_fast=256,
        num_samples_slow=128,
        lms_max_iterations=40,
        num_cost_points=120,
        measure_evm_enabled=False,
    )


@pytest.fixture(scope="module")
def campaign_result():
    scenarios = [
        CampaignScenario(profile="paper-qpsk-1ghz", label="paper-nominal"),
        CampaignScenario(
            profile="paper-qpsk-1ghz",
            label="paper-saturated-pa",
            impairments=ImpairmentConfig().with_amplifier(
                RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
            ),
        ),
        CampaignScenario(profile="lband-64qam-1p5ghz", label="lband-nominal"),
    ]
    runner = CampaignRunner(
        bist_config=small_bist_config(),
        converter_factory=ConverterSpec(dcde_static_error_seconds=4e-12, seed=31),
    )
    return runner.run(scenarios)


@pytest.mark.slow
class TestCampaign:
    def test_all_scenarios_executed(self, campaign_result):
        assert not campaign_result.errors
        assert len(campaign_result.reports) == 3

    def test_nominal_units_pass(self, campaign_result):
        by_label = dict(campaign_result.entries)
        assert by_label["paper-nominal"].passed
        assert by_label["lband-nominal"].passed

    def test_saturated_pa_detected(self, campaign_result):
        by_label = dict(campaign_result.entries)
        faulty = by_label["paper-saturated-pa"]
        assert not faulty.passed
        spectral = [faulty.check("acpr").verdict, faulty.check("spectral_mask").verdict]
        assert Verdict.FAIL in spectral
        assert campaign_result.failures() == ["paper-saturated-pa"]
        assert not campaign_result.all_passed

    def test_skew_calibrated_in_every_scenario(self, campaign_result):
        for _, report in campaign_result.entries:
            assert report.calibration.converged
            assert report.calibration.estimation_error_seconds < 2e-12

    def test_summary_table_renders(self, campaign_result):
        table = campaign_result.summary_table()
        assert "paper-nominal" in table
        assert "paper-saturated-pa" in table
        assert "fail" in table
        assert "pass" in table


class TestFaultSensitivity:
    def test_iq_imbalance_detected_via_evm(self):
        """A heavy IQ imbalance passes the spectral checks but fails EVM."""
        config = BistConfig(
            num_samples_fast=256,
            num_samples_slow=128,
            lms_max_iterations=40,
            num_cost_points=120,
            measure_evm_enabled=True,
        )
        scenarios = [
            CampaignScenario(
                profile="paper-qpsk-1ghz",
                label="iq-imbalance",
                impairments=ImpairmentConfig(
                    iq_imbalance=IqImbalance(gain_imbalance_db=2.5, phase_imbalance_deg=15.0)
                ),
            )
        ]
        runner = CampaignRunner(bist_config=config, converter_factory=ConverterSpec(seed=37))
        report = runner.run(scenarios).reports[0]
        assert report.check("evm").verdict is Verdict.FAIL
        assert not report.passed
