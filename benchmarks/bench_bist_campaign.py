"""Extension experiment: the complete BIST strategy as a multistandard campaign.

The paper stops at signal reconstruction ("opening the way for a complete RF
BIST strategy"); this benchmark exercises that complete strategy, built on
top of the reproduced machinery: the BIST engine runs the acquisition, LMS
calibration, reconstruction and spectral-mask / ACPR / OBW checks across
several waveform profiles and fault-injection scenarios, and must separate
healthy units from faulty ones.
"""

from repro.bist import BistConfig, CampaignRunner, CampaignScenario, ConverterSpec
from repro.rf import IqImbalance, RappAmplifier
from repro.transmitter import ImpairmentConfig

from conftest import print_header


def build_scenarios():
    saturated_pa = ImpairmentConfig().with_amplifier(
        RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
    )
    return [
        CampaignScenario(profile="paper-qpsk-1ghz", label="paper-qpsk nominal"),
        CampaignScenario(
            profile="paper-qpsk-1ghz", label="paper-qpsk saturated-PA", impairments=saturated_pa
        ),
        CampaignScenario(
            profile="paper-qpsk-1ghz",
            label="paper-qpsk IQ-imbalance",
            impairments=ImpairmentConfig(
                iq_imbalance=IqImbalance(gain_imbalance_db=2.5, phase_imbalance_deg=15.0)
            ),
        ),
        CampaignScenario(profile="uhf-8psk-400mhz", label="uhf-8psk nominal"),
        CampaignScenario(profile="lband-64qam-1p5ghz", label="lband-64qam nominal"),
    ]


def run_campaign():
    config = BistConfig(
        num_samples_fast=300,
        num_samples_slow=150,
        lms_max_iterations=40,
        num_cost_points=150,
        measure_evm_enabled=True,
    )
    runner = CampaignRunner(
        bist_config=config,
        converter_factory=ConverterSpec(
            dcde_static_error_seconds=5e-12, channel1_skew_seconds=2e-12, seed=314
        ),
    )
    return runner.run(build_scenarios())


def test_bist_campaign(benchmark):
    result = benchmark.pedantic(run_campaign, rounds=1, iterations=1)

    print_header("Extension - multistandard BIST campaign with fault injection")
    print(result.summary_table())
    print()
    for label, report in result.entries:
        print(report.to_text())
        print()

    # --- Expected behaviour ---------------------------------------------------
    assert not result.errors
    by_label = dict(result.entries)
    # Healthy units pass under every profile.
    assert by_label["paper-qpsk nominal"].passed
    assert by_label["uhf-8psk nominal"].passed
    assert by_label["lband-64qam nominal"].passed
    # The saturated PA is caught by the spectral checks.
    saturated = by_label["paper-qpsk saturated-PA"]
    assert not saturated.passed
    assert (
        not saturated.check("acpr").verdict.passed
        or not saturated.check("spectral_mask").verdict.passed
    )
    # The IQ imbalance is caught by EVM.
    imbalance = by_label["paper-qpsk IQ-imbalance"]
    assert not imbalance.check("evm").verdict.passed
    # Time-skew calibration converged in every scenario.
    for _, report in result.entries:
        assert report.calibration.converged
        assert report.calibration.estimation_error_seconds < 2e-12
