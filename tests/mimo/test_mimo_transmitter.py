"""Tests for repro.mimo.transmitter: multi-chain coupling and fault hooks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.faults import ChannelSpreadFault, SharedLoCorrelationFault, TxLeakageFault
from repro.mimo import MimoSpec, MimoTransmitter, derive_chain_seed
from repro.rf import RappAmplifier
from repro.transmitter import HomodyneTransmitter, ImpairmentConfig, TransmitterConfig

BASE = TransmitterConfig.paper_default(seed=11)


class TestMimoSpec:
    def test_defaults_describe_an_uncoupled_2t2r_array(self):
        spec = MimoSpec()
        assert spec.num_chains == 2
        assert spec.leakage_coefficient == 0.0
        assert not np.any(spec.chain_gain_offsets_db())
        assert not np.any(spec.chain_skew_offsets_seconds())

    def test_validation(self):
        with pytest.raises(ValidationError):
            MimoSpec(num_chains=0)
        with pytest.raises(ConfigurationError):
            MimoSpec(shared_lo_correlation=1.5)
        with pytest.raises(ConfigurationError):
            MimoSpec(tx_leakage_db=float("inf"))

    def test_leakage_coefficient_magnitude_and_phase(self):
        coefficient = MimoSpec(tx_leakage_db=-20.0).leakage_coefficient
        assert np.isclose(abs(coefficient), 0.1)
        assert coefficient.imag == 0.0

    def test_spread_offsets_are_symmetric(self):
        spec = MimoSpec(num_chains=3, gain_spread_db=6.0)
        offsets = spec.chain_gain_offsets_db()
        assert np.allclose(offsets, [-3.0, 0.0, 3.0])

    def test_round_trips_through_dict(self):
        spec = MimoSpec(tx_leakage_db=-25.0, gain_spread_db=2.0, seed=3)
        assert MimoSpec.from_dict(spec.to_dict()) == spec

    def test_spec_archived_with_a_coupling_phase_loads_only_at_zero(self):
        data = MimoSpec(tx_leakage_db=-25.0).to_dict()
        assert MimoSpec.from_dict({**data, "tx_leakage_phase_deg": 0.0}) == MimoSpec(
            tx_leakage_db=-25.0
        )
        with pytest.raises(ValidationError):
            MimoSpec.from_dict({**data, "tx_leakage_phase_deg": 90.0})


class TestChainSeeds:
    def test_chain_zero_keeps_the_base_seed(self):
        assert derive_chain_seed(42, 0) == 42

    def test_chains_draw_distinct_deterministic_seeds(self):
        seeds = [derive_chain_seed(42, index) for index in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [derive_chain_seed(42, index) for index in range(4)]

    def test_none_base_seed_stays_none(self):
        assert derive_chain_seed(None, 3) is None


class TestMimoTransmitter:
    def test_default_spec_is_bit_identical_to_independent_chains(self):
        mimo = MimoTransmitter(base_config=BASE, spec=MimoSpec(num_chains=2))
        transmission = mimo.transmit(num_symbols=64)
        for index in range(2):
            config = mimo.chain(index).config
            solo = HomodyneTransmitter(config).transmit(num_symbols=64)
            np.testing.assert_array_equal(
                transmission.chain(index).output_envelope.samples,
                solo.output_envelope.samples,
            )

    def test_chains_transmit_independent_symbol_streams(self):
        mimo = MimoTransmitter(base_config=BASE, spec=MimoSpec(num_chains=2))
        transmission = mimo.transmit(num_symbols=64)
        assert not np.array_equal(
            transmission.chain(0).symbols, transmission.chain(1).symbols
        )

    def test_dict_override_patches_one_chain_and_derives_its_seed(self):
        impaired = ImpairmentConfig().with_amplifier(
            RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
        )
        mimo = MimoTransmitter(
            base_config=BASE,
            spec=MimoSpec(num_chains=2),
            chain_overrides=[None, {"impairments": impaired}],
        )
        assert mimo.chain(0).config.impairments != impaired
        assert mimo.chain(1).config.impairments == impaired
        assert mimo.chain(1).config.seed == derive_chain_seed(BASE.seed, 1)

    def test_too_many_overrides_are_rejected(self):
        with pytest.raises(ConfigurationError, match="override"):
            MimoTransmitter(spec=MimoSpec(num_chains=2), chain_overrides=[None] * 3)

    def test_gain_spread_scales_chain_power(self):
        spread = MimoSpec(num_chains=2, gain_spread_db=6.0)
        coupled = MimoTransmitter(base_config=BASE, spec=spread).transmit(num_symbols=64)
        flat = MimoTransmitter(base_config=BASE, spec=MimoSpec(num_chains=2)).transmit(
            num_symbols=64
        )
        ratios = [
            np.mean(np.abs(coupled.chain(i).output_envelope.samples) ** 2)
            / np.mean(np.abs(flat.chain(i).output_envelope.samples) ** 2)
            for i in range(2)
        ]
        # -3 dB on chain 0, +3 dB on chain 1.
        assert np.isclose(ratios[0], 10.0 ** (-3.0 / 10.0))
        assert np.isclose(ratios[1], 10.0 ** (+3.0 / 10.0))

    def test_leakage_mixes_the_other_chain_in(self):
        leaky = MimoSpec(num_chains=2, tx_leakage_db=-20.0)
        coupled = MimoTransmitter(base_config=BASE, spec=leaky).transmit(num_symbols=64)
        clean = MimoTransmitter(base_config=BASE, spec=MimoSpec(num_chains=2)).transmit(
            num_symbols=64
        )
        residual = (
            coupled.chain(0).output_envelope.samples
            - clean.chain(0).output_envelope.samples
        )
        expected = leaky.leakage_coefficient * clean.chain(1).output_envelope.samples
        np.testing.assert_allclose(residual, expected, rtol=1e-12, atol=1e-12)

    def test_shared_lo_rotation_is_common_mode(self):
        spec = MimoSpec(
            num_chains=2, shared_lo_correlation=1.0, shared_lo_linewidth_hz=50e3, seed=9
        )
        coupled = MimoTransmitter(base_config=BASE, spec=spec).transmit(num_symbols=64)
        clean = MimoTransmitter(base_config=BASE, spec=MimoSpec(num_chains=2)).transmit(
            num_symbols=64
        )
        rotations = [
            coupled.chain(i).output_envelope.samples
            / clean.chain(i).output_envelope.samples
            for i in range(2)
        ]
        # Both chains see the same unit-magnitude phase realisation.
        np.testing.assert_allclose(np.abs(rotations[0]), 1.0, rtol=1e-9)
        np.testing.assert_allclose(rotations[0], rotations[1], rtol=1e-9)


class TestMimoFaultHooks:
    def test_zero_severity_is_identity(self):
        spec = MimoSpec()
        for fault in (
            TxLeakageFault(severity=0.0),
            SharedLoCorrelationFault(severity=0.0),
            ChannelSpreadFault(severity=0.0),
        ):
            assert fault.apply_mimo(spec) == spec

    def test_tx_leakage_fault_patches_coupling(self):
        patched = TxLeakageFault(severity=1.0).apply_mimo(MimoSpec())
        assert patched.tx_leakage_db == -12.0

    def test_shared_lo_fault_patches_correlation(self):
        patched = SharedLoCorrelationFault(severity=0.5).apply_mimo(MimoSpec())
        assert patched.shared_lo_correlation == 0.5
        assert patched.shared_lo_linewidth_hz == 40.0e3

    def test_channel_spread_fault_patches_spreads(self):
        patched = ChannelSpreadFault(severity=0.5).apply_mimo(MimoSpec())
        assert patched.gain_spread_db == 3.0
        assert patched.skew_spread_seconds == 40.0e-12

    def test_faults_compose_onto_one_spec(self):
        spec = MimoSpec()
        for fault in (
            TxLeakageFault(severity=1.0),
            SharedLoCorrelationFault(severity=1.0),
            ChannelSpreadFault(severity=1.0),
        ):
            spec = fault.apply_mimo(spec)
        assert spec.tx_leakage_db == -12.0
        assert spec.shared_lo_correlation == 1.0
        assert spec.gain_spread_db == 6.0
