"""Tests for repro.bist.campaign (scenario plumbing; heavy runs live in integration)."""

import pytest

from repro.bist import BistConfig, CampaignScenario, ConverterSpec, scenario_bandwidth
from repro.rf import RappAmplifier
from repro.signals import get_profile
from repro.transmitter import ImpairmentConfig


class TestDefaultConverter:
    def test_paper_configuration(self):
        converter = ConverterSpec()(90e6)
        assert converter.sample_rate == pytest.approx(90e6)
        assert converter.channel0.quantizer.resolution_bits == 10
        assert converter.skew_jitter_rms_seconds == pytest.approx(3e-12)

    def test_injected_timing_errors(self):
        converter = ConverterSpec(
            dcde_static_error_seconds=6e-12,
            channel1_skew_seconds=2e-12,
        )(90e6)
        converter.program_delay(180e-12)
        assert converter.true_delay == pytest.approx(188e-12)


class TestConverterSpecBandwidth:
    def test_bandwidth_folds_into_channel1_mismatch(self):
        from repro.bist import ConverterSpec

        spec = ConverterSpec(channel1_bandwidth_hz=1.0e9, bandwidth_reference_hz=1.0e9)
        converter = spec.build(90e6)
        mismatch = converter.channel1.mismatch
        assert mismatch.gain == pytest.approx(1.0 / 2.0**0.5)
        assert mismatch.skew_seconds == pytest.approx(125e-12)
        # Channel 0 keeps its nominal response.
        assert converter.channel0.mismatch.is_ideal

    def test_bandwidth_without_reference_rejected(self):
        from repro.bist import ConverterSpec
        from repro.errors import ConfigurationError

        spec = ConverterSpec(channel1_bandwidth_hz=1.0e9)
        with pytest.raises(ConfigurationError):
            spec.build(90e6)

    def test_no_bandwidth_keeps_legacy_build(self):
        from repro.bist import ConverterSpec

        nominal = ConverterSpec().build(90e6)
        assert nominal.channel1.mismatch.is_ideal


class TestCampaignScenario:
    def test_profile_resolution_by_name(self):
        scenario = CampaignScenario(profile="paper-qpsk-1ghz")
        assert scenario.resolved_profile().carrier_frequency_hz == pytest.approx(1e9)
        assert scenario.resolved_label() == "paper-qpsk-1ghz"

    def test_profile_object_passthrough(self):
        profile = get_profile("uhf-8psk-400mhz")
        scenario = CampaignScenario(profile=profile, label="uhf-nominal")
        assert scenario.resolved_profile() is profile
        assert scenario.resolved_label() == "uhf-nominal"

    def test_impairments_default_ideal(self):
        scenario = CampaignScenario(profile="paper-qpsk-1ghz")
        assert scenario.impairments.iq_imbalance.is_ideal

    def test_custom_impairments(self):
        impairments = ImpairmentConfig().with_amplifier(RappAmplifier(saturation_amplitude=0.6))
        scenario = CampaignScenario(profile="paper-qpsk-1ghz", impairments=impairments)
        assert isinstance(scenario.impairments.amplifier, RappAmplifier)


class TestScenarioBandwidth:
    def test_scenario_bandwidth_scales_for_narrowband(self):
        profile = get_profile("narrowband-vhf-bpsk")
        bandwidth = scenario_bandwidth(profile, BistConfig())
        assert bandwidth < 90e6
        assert bandwidth >= 2.5 * profile.occupied_bandwidth_hz

    def test_scenario_bandwidth_keeps_nominal_for_wideband(self):
        profile = get_profile("paper-qpsk-1ghz")
        assert scenario_bandwidth(profile, BistConfig()) == pytest.approx(60e6, rel=0.01)
