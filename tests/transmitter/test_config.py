"""Tests for repro.transmitter.config."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.rf import DcOffset, IqImbalance, PolynomialAmplifier, RappAmplifier
from repro.signals import get_profile
from repro.transmitter import ImpairmentConfig, TransmitterConfig


class TestImpairmentConfig:
    def test_ideal_default(self):
        config = ImpairmentConfig.ideal()
        assert config.iq_imbalance.is_ideal
        assert config.dc_offset.is_ideal
        assert config.phase_noise.is_ideal
        assert config.output_snr_db is None

    def test_with_amplifier(self):
        amplifier = RappAmplifier(gain_db=0.0, saturation_amplitude=0.5)
        config = ImpairmentConfig().with_amplifier(amplifier)
        assert config.amplifier is amplifier
        # Other fields untouched
        assert config.iq_imbalance.is_ideal

    def test_dac_override_field(self):
        from repro.transmitter import TransmitDac

        config = ImpairmentConfig(dac=TransmitDac(resolution_bits=6))
        assert config.dac.resolution_bits == 6
        assert ImpairmentConfig().dac is None

    def test_bad_dac_rejected(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(dac="not a dac")

    def test_bad_filter_scale_rejected(self):
        with pytest.raises(ReproError):
            ImpairmentConfig(output_filter_bandwidth_scale=0.0)


class TestTransmitterConfig:
    def test_paper_default_matches_section_v(self):
        config = TransmitterConfig.paper_default()
        assert config.carrier_frequency_hz == pytest.approx(1e9)
        assert config.symbol_rate_hz == pytest.approx(10e6)
        assert config.modulation == "qpsk"
        assert config.rolloff == pytest.approx(0.5)

    def test_envelope_sample_rate(self):
        config = TransmitterConfig.paper_default()
        assert config.envelope_sample_rate == pytest.approx(160e6)

    def test_occupied_bandwidth(self):
        config = TransmitterConfig.paper_default()
        assert config.occupied_bandwidth_hz == pytest.approx(15e6)

    def test_from_profile(self):
        profile = get_profile("uhf-8psk-400mhz")
        config = TransmitterConfig.from_profile(profile)
        assert config.carrier_frequency_hz == pytest.approx(profile.carrier_frequency_hz)
        assert config.modulation == profile.modulation
        assert config.rolloff == pytest.approx(profile.rolloff)

    def test_custom_impairments_carried(self):
        impairments = ImpairmentConfig(iq_imbalance=IqImbalance(gain_imbalance_db=1.0))
        config = TransmitterConfig.paper_default(impairments=impairments)
        assert config.impairments.iq_imbalance.gain_imbalance_db == pytest.approx(1.0)

    def test_invalid_rolloff(self):
        with pytest.raises(ReproError):
            TransmitterConfig(rolloff=1.5)

    def test_envelope_rate_above_carrier_rejected(self):
        with pytest.raises(ConfigurationError):
            TransmitterConfig(carrier_frequency_hz=50e6, symbol_rate_hz=10e6, samples_per_symbol=16)

    def test_invalid_samples_per_symbol(self):
        with pytest.raises(ReproError):
            TransmitterConfig(samples_per_symbol=1)


class TestSerialization:
    def test_impairment_json_roundtrip(self):
        config = ImpairmentConfig(
            amplifier=RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2),
            iq_imbalance=IqImbalance(gain_imbalance_db=2.5, phase_imbalance_deg=15.0),
            dc_offset=DcOffset(i_offset=0.05),
            output_snr_db=30.0,
        )
        restored = ImpairmentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_polynomial_amplifier_roundtrip(self):
        config = ImpairmentConfig(amplifier=PolynomialAmplifier())
        restored = ImpairmentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_dac_and_filter_scale_roundtrip(self):
        from repro.transmitter import TransmitDac

        config = ImpairmentConfig(
            dac=TransmitDac(resolution_bits=6),
            output_filter_bandwidth_scale=0.25,
        )
        restored = ImpairmentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_legacy_payload_without_new_fields(self):
        payload = ImpairmentConfig().to_dict()
        del payload["dac"]
        del payload["output_filter_bandwidth_scale"]
        restored = ImpairmentConfig.from_dict(payload)
        assert restored.dac is None
        assert restored.output_filter_bandwidth_scale == 1.0

    def test_unknown_amplifier_type_rejected(self):
        payload = ImpairmentConfig().to_dict()
        payload["amplifier"]["type"] = "FluxCapacitorAmplifier"
        with pytest.raises(ConfigurationError):
            ImpairmentConfig.from_dict(payload)

    def test_missing_amplifier_type_rejected(self):
        payload = ImpairmentConfig().to_dict()
        del payload["amplifier"]["type"]
        with pytest.raises(ConfigurationError):
            ImpairmentConfig.from_dict(payload)

    def test_transmitter_config_json_roundtrip(self):
        config = TransmitterConfig.from_profile(
            get_profile("uhf-8psk-400mhz"),
            impairments=ImpairmentConfig(iq_imbalance=IqImbalance(gain_imbalance_db=1.0)),
            seed=7,
        )
        restored = TransmitterConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.envelope_sample_rate == pytest.approx(config.envelope_sample_rate)

    def test_transmitter_config_picklable(self):
        config = TransmitterConfig.paper_default(
            impairments=ImpairmentConfig().with_amplifier(RappAmplifier(saturation_amplitude=0.6))
        )
        assert pickle.loads(pickle.dumps(config)) == config
