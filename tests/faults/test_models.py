"""Tests for repro.faults.models: fault families, registry, injection."""

import pickle

import pytest

from repro.bist import CampaignScenario, ConverterSpec
from repro.errors import ValidationError
from repro.faults import (
    FAULT_FAMILIES,
    DacResolutionFault,
    DcdeErrorFault,
    FaultModel,
    FilterDriftFault,
    IqImbalanceFault,
    LoLeakageFault,
    PaCompressionFault,
    PhaseNoiseFault,
    TiadcBandwidthFault,
    TiadcMismatchFault,
    TiadcSkewFault,
    fault_grid,
    get_fault_family,
)
from repro.rf.amplifier import RappAmplifier
from repro.signals import get_profile
from repro.transmitter import ImpairmentConfig

ALL_FAMILIES = [
    PaCompressionFault,
    IqImbalanceFault,
    LoLeakageFault,
    PhaseNoiseFault,
    DacResolutionFault,
    FilterDriftFault,
    TiadcSkewFault,
    TiadcMismatchFault,
    TiadcBandwidthFault,
    DcdeErrorFault,
]


class TestRegistry:
    def test_all_families_registered(self):
        names = sorted(FAULT_FAMILIES)
        assert len(names) >= 8
        for cls in ALL_FAMILIES:
            assert FAULT_FAMILIES[cls.family] is cls

    def test_lookup_by_name(self):
        assert get_fault_family("pa-compression") is PaCompressionFault

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            get_fault_family("gremlins")

    def test_family_names_unique(self):
        assert len(set(cls.family for cls in ALL_FAMILIES)) == len(ALL_FAMILIES)


class TestSeverity:
    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_from_severity_and_label(self, cls):
        fault = cls.from_severity(0.5)
        assert fault.severity == 0.5
        assert fault.label == f"{cls.family}-s0.5"

    @pytest.mark.parametrize("severity", [-0.1, 1.5])
    def test_out_of_range_severity_rejected(self, severity):
        with pytest.raises(ValidationError):
            PaCompressionFault(severity=severity)

    def test_with_severity(self):
        fault = IqImbalanceFault(severity=0.2, max_gain_imbalance_db=6.0)
        hotter = fault.with_severity(1.0)
        assert hotter.max_gain_imbalance_db == 6.0
        assert hotter.severity == 1.0

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_picklable(self, cls):
        fault = cls.from_severity(0.75)
        assert pickle.loads(pickle.dumps(fault)) == fault

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_describe_is_json_friendly(self, cls):
        import json

        description = cls.from_severity(0.75).describe()
        assert description["family"] == cls.family
        assert description["params"]["severity"] == 0.75
        json.dumps(description)  # must not raise


class TestTransmitterInjection:
    def test_pa_compression_interpolates_saturation(self):
        fault = PaCompressionFault(severity=0.5, nominal_saturation=2.0, worst_saturation=1.0)
        assert fault.saturation_amplitude == pytest.approx(1.5)
        impaired = fault.apply_transmitter(ImpairmentConfig())
        assert isinstance(impaired.amplifier, RappAmplifier)
        assert impaired.amplifier.saturation_amplitude == pytest.approx(1.5)

    def test_iq_imbalance_scales_with_severity(self):
        impaired = IqImbalanceFault(severity=0.5).apply_transmitter(ImpairmentConfig())
        assert impaired.iq_imbalance.gain_imbalance_db == pytest.approx(1.5)
        assert impaired.iq_imbalance.phase_imbalance_deg == pytest.approx(10.0)

    def test_lo_leakage_sets_offsets(self):
        impaired = LoLeakageFault(severity=0.5).apply_transmitter(ImpairmentConfig())
        assert impaired.dc_offset.i_offset == pytest.approx(0.2)

    def test_phase_noise_scales(self):
        impaired = PhaseNoiseFault(severity=0.5).apply_transmitter(ImpairmentConfig())
        assert impaired.phase_noise.linewidth_hz == pytest.approx(25.0e3)
        assert impaired.phase_noise.rms_jitter_seconds == pytest.approx(15.0e-12)

    def test_dac_resolution_interpolates_bits(self):
        fault = DacResolutionFault(severity=1.0)
        impaired = fault.apply_transmitter(ImpairmentConfig())
        assert impaired.dac.resolution_bits == 4
        mild = DacResolutionFault(severity=0.0).apply_transmitter(ImpairmentConfig())
        assert mild.dac.resolution_bits == 14

    def test_filter_drift_scales_bandwidth(self):
        impaired = FilterDriftFault(severity=1.0).apply_transmitter(ImpairmentConfig())
        assert impaired.output_filter_bandwidth_scale == pytest.approx(0.06)

    def test_transmitter_faults_leave_converter_untouched(self):
        spec = ConverterSpec()
        assert PaCompressionFault().apply_converter(spec) == spec


class TestConverterInjection:
    def test_tiadc_skew(self):
        spec = TiadcSkewFault(severity=0.5, max_skew_seconds=40e-12).apply_converter(ConverterSpec())
        assert spec.channel1_skew_seconds == pytest.approx(20e-12)

    def test_tiadc_mismatch(self):
        spec = TiadcMismatchFault(severity=1.0).apply_converter(ConverterSpec())
        assert spec.channel1_gain_error == pytest.approx(0.15)
        assert spec.channel1_offset == pytest.approx(0.2)

    def test_tiadc_bandwidth_geometric_interpolation(self):
        # Halfway between 30 GHz and 1.2 GHz on a log scale: 6 GHz.
        fault = TiadcBandwidthFault(severity=0.5)
        assert fault.bandwidth_hz == pytest.approx(6e9)
        spec = fault.apply_converter(ConverterSpec())
        assert spec.channel1_bandwidth_hz == pytest.approx(6e9)
        assert spec.bandwidth_reference_hz == fault.reference_frequency_hz

    def test_tiadc_bandwidth_zero_severity_is_identity(self):
        spec = ConverterSpec()
        assert TiadcBandwidthFault(severity=0.0).apply_converter(spec) == spec

    def test_tiadc_bandwidth_specialises_to_profile(self):
        profile = get_profile("uhf-8psk-400mhz")
        fault = TiadcBandwidthFault().for_profile(profile)
        assert fault.reference_frequency_hz == profile.carrier_frequency_hz

    def test_dcde_error(self):
        spec = DcdeErrorFault(severity=0.5).apply_converter(ConverterSpec())
        assert spec.dcde_static_error_seconds == pytest.approx(4e-12)

    def test_converter_faults_leave_transmitter_untouched(self):
        impairments = ImpairmentConfig()
        assert TiadcSkewFault().apply_transmitter(impairments) == impairments


class TestScenarioInjection:
    def test_transmitter_fault_keeps_campaign_converter(self):
        scenario = CampaignScenario(profile="paper-qpsk-1ghz")
        faulty = PaCompressionFault().apply_scenario(scenario)
        assert faulty.converter is None
        assert isinstance(faulty.impairments.amplifier, RappAmplifier)
        assert faulty.label == "paper-qpsk-1ghz/pa-compression-s1"

    def test_converter_fault_attaches_spec(self):
        scenario = CampaignScenario(profile="paper-qpsk-1ghz")
        faulty = TiadcSkewFault().apply_scenario(scenario, label="custom")
        assert faulty.converter is not None
        assert faulty.converter.channel1_skew_seconds == pytest.approx(40e-12)
        assert faulty.label == "custom"

    def test_existing_converter_used_as_base(self):
        base = ConverterSpec(channel1_offset=0.01)
        scenario = CampaignScenario(profile="paper-qpsk-1ghz", converter=base)
        faulty = TiadcSkewFault().apply_scenario(scenario)
        assert faulty.converter.channel1_offset == 0.01

    def test_non_scenario_rejected(self):
        with pytest.raises(ValidationError):
            PaCompressionFault().apply_scenario("not a scenario")


class TestFaultGrid:
    def test_names_times_severities(self):
        models = fault_grid(["pa-compression", "tiadc-skew"], [0.25, 0.5, 1.0])
        assert len(models) == 6
        assert [m.severity for m in models[:3]] == [0.25, 0.5, 1.0]
        assert all(isinstance(m, FaultModel) for m in models)

    def test_classes_and_instances(self):
        template = IqImbalanceFault(max_gain_imbalance_db=6.0)
        models = fault_grid([PaCompressionFault, template], [1.0])
        assert isinstance(models[0], PaCompressionFault)
        assert models[1].max_gain_imbalance_db == 6.0

    def test_empty_severities_rejected(self):
        with pytest.raises(ValidationError):
            fault_grid(["pa-compression"], [])

    def test_bad_entry_rejected(self):
        with pytest.raises(ValidationError):
            fault_grid([42], [1.0])
