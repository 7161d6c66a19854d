"""Tests for repro.bist.engine (the full BIST loop, reduced-size runs)."""

import pytest

from repro.adc import AdcChannel, BpTiadc, DigitallyControlledDelayElement, UniformQuantizer
from repro.bist import BistConfig, ConverterSpec, TransmitterBist, Verdict
from repro.errors import ConfigurationError, ValidationError
from repro.rf import RappAmplifier
from repro.transmitter import HomodyneTransmitter, ImpairmentConfig, TransmitterConfig


def small_config(**overrides):
    """A reduced-size BIST configuration to keep engine tests fast."""
    defaults = dict(
        num_samples_fast=256,
        num_samples_slow=128,
        lms_max_iterations=40,
        num_cost_points=120,
        measure_evm_enabled=False,
    )
    defaults.update(overrides)
    return BistConfig(**defaults)


@pytest.fixture(scope="module")
def healthy_report():
    config = small_config()
    transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
    converter = ConverterSpec(
        dcde_static_error_seconds=5e-12,
        channel1_skew_seconds=2e-12,
        seed=5,
    )(config.acquisition_bandwidth_hz)
    engine = TransmitterBist(transmitter, converter, config=config)
    return engine.run()


class TestHealthyUnit:
    def test_overall_pass(self, healthy_report):
        assert healthy_report.passed
        assert healthy_report.verdict is Verdict.PASS

    def test_skew_estimated_to_sub_picosecond(self, healthy_report):
        calibration = healthy_report.calibration
        assert calibration.converged
        assert calibration.estimation_error_seconds < 1.0e-12

    def test_estimate_tracks_true_not_programmed_delay(self, healthy_report):
        calibration = healthy_report.calibration
        error_vs_true = abs(calibration.estimated_delay_seconds - calibration.true_delay_seconds)
        error_vs_programmed = abs(
            calibration.estimated_delay_seconds - calibration.programmed_delay_seconds
        )
        assert error_vs_true < error_vs_programmed

    def test_measurements_present(self, healthy_report):
        measurements = healthy_report.measurements
        assert measurements.output_power > 0.0
        assert measurements.acpr_db["worst_db"] < -20.0
        assert 5e6 < measurements.occupied_bandwidth_hz < 20e6

    def test_individual_checks(self, healthy_report):
        assert healthy_report.check("acpr").verdict is Verdict.PASS
        assert healthy_report.check("spectral_mask").verdict is Verdict.PASS
        assert healthy_report.check("evm").verdict is Verdict.SKIPPED

    def test_report_renders(self, healthy_report):
        text = healthy_report.to_text()
        assert "PASS" in text
        as_dict = healthy_report.to_dict()
        assert as_dict["profile"] == "paper-qpsk-1ghz"


class TestFaultDetection:
    def test_heavily_compressed_pa_fails_mask_or_acpr(self):
        """A strongly saturated PA must be caught by the spectral checks."""
        config = small_config()
        faulty = ImpairmentConfig().with_amplifier(
            RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
        )
        transmitter = HomodyneTransmitter(
            TransmitterConfig.paper_default(impairments=faulty, seed=22)
        )
        converter = ConverterSpec(seed=6)(config.acquisition_bandwidth_hz)
        report = TransmitterBist(transmitter, converter, config=config).run()
        spectral_verdicts = [report.check("acpr").verdict, report.check("spectral_mask").verdict]
        assert Verdict.FAIL in spectral_verdicts
        assert not report.passed


class TestConfigurationErrors:
    def test_rate_mismatch_rejected(self):
        config = small_config()
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        converter = ConverterSpec()(45e6)  # wrong rate vs config's 90 MHz
        with pytest.raises(ConfigurationError):
            TransmitterBist(transmitter, converter, config=config)

    def test_invalid_transmitter_type(self):
        converter = ConverterSpec()(90e6)
        with pytest.raises(ValidationError):
            TransmitterBist("transmitter", converter)

    def test_invalid_converter_type(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        with pytest.raises(ValidationError):
            TransmitterBist(transmitter, "converter")

    def test_required_burst_duration_covers_acquisitions(self):
        config = small_config()
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        converter = ConverterSpec()(config.acquisition_bandwidth_hz)
        engine = TransmitterBist(transmitter, converter, config=config)
        duration = engine.required_burst_duration()
        assert duration >= config.num_samples_slow / (config.acquisition_bandwidth_hz / 2.0)

    def test_invalid_bist_config_values(self):
        with pytest.raises(ValidationError):
            BistConfig(num_samples_fast=10)
