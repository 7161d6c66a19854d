"""Tests for repro.transmitter.chain (the homodyne transmitter)."""

import numpy as np
import pytest

from repro.dsp import welch_psd, band_power
from repro.errors import ConfigurationError, ValidationError
from repro.rf import IqImbalance, RappAmplifier
from repro.transmitter import HomodyneTransmitter, ImpairmentConfig, TransmitterConfig


class TestTransmission:
    def test_burst_metadata(self, paper_burst):
        assert paper_burst.carrier_frequency == pytest.approx(1e9)
        assert paper_burst.symbols.size == 64
        assert paper_burst.duration == pytest.approx(64 / 10e6)

    def test_output_power_close_to_configured(self, paper_burst):
        assert paper_burst.output_envelope.mean_power() == pytest.approx(1.0, rel=0.25)

    def test_ideal_envelope_is_unit_power(self, paper_burst):
        assert paper_burst.ideal_envelope.mean_power() == pytest.approx(1.0, rel=1e-6)

    def test_deterministic_with_seed(self):
        a = HomodyneTransmitter(TransmitterConfig.paper_default(seed=5)).transmit(32)
        b = HomodyneTransmitter(TransmitterConfig.paper_default(seed=5)).transmit(32)
        np.testing.assert_array_equal(a.symbol_indices, b.symbol_indices)
        np.testing.assert_allclose(a.output_envelope.samples, b.output_envelope.samples)

    def test_different_seeds_differ(self):
        a = HomodyneTransmitter(TransmitterConfig.paper_default(seed=1)).transmit(32)
        b = HomodyneTransmitter(TransmitterConfig.paper_default(seed=2)).transmit(32)
        assert not np.array_equal(a.symbol_indices, b.symbol_indices)

    def test_explicit_symbols(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        indices = np.tile(np.arange(4), 8)
        burst = transmitter.transmit(symbol_indices=indices)
        np.testing.assert_array_equal(burst.symbol_indices, indices)

    def test_too_few_symbols_rejected(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        with pytest.raises(ConfigurationError):
            transmitter.transmit(symbol_indices=np.zeros(4, dtype=int))

    def test_transmit_for_duration(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        burst = transmitter.transmit_for_duration(5e-6)
        assert burst.duration >= 5e-6

    def test_invalid_duration(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        with pytest.raises(ConfigurationError):
            transmitter.transmit_for_duration(0.0)

    def test_invalid_config_type(self):
        with pytest.raises(ValidationError):
            HomodyneTransmitter("config")


class TestImpairmentHooks:
    def test_impairment_dac_is_used(self):
        from repro.transmitter import TransmitDac

        config = TransmitterConfig.paper_default(
            impairments=ImpairmentConfig(dac=TransmitDac(resolution_bits=3)),
            seed=7,
        )
        coarse = HomodyneTransmitter(config).transmit(64)
        clean = HomodyneTransmitter(TransmitterConfig.paper_default(seed=7)).transmit(64)
        # The 3-bit DAC visibly distorts the envelope relative to the ideal.
        error = coarse.output_envelope.samples - clean.output_envelope.samples
        assert np.sqrt(np.mean(np.abs(error) ** 2)) > 0.05

    def test_filter_drift_narrows_output(self):
        drifted_config = TransmitterConfig.paper_default(
            impairments=ImpairmentConfig(output_filter_bandwidth_scale=0.06),
            seed=9,
        )
        clean_config = TransmitterConfig.paper_default(seed=9)
        drifted = HomodyneTransmitter(drifted_config).transmit(128)
        clean = HomodyneTransmitter(clean_config).transmit(128)
        # The narrowed filter removes part of the SRRC spectrum: the band-edge
        # power drops while the ideal pulse-shaped reference is unchanged.
        rate = drifted.output_envelope.sample_rate
        drifted_psd = welch_psd(drifted.output_envelope.samples, rate, segment_length=512)
        clean_psd = welch_psd(clean.output_envelope.samples, rate, segment_length=512)
        edge = band_power(drifted_psd, 5.0e6, 7.5e6)
        clean_edge = band_power(clean_psd, 5.0e6, 7.5e6)
        assert edge < 0.5 * clean_edge


class TestSpectralBehaviour:
    def test_spectrum_centred_on_envelope_baseband(self, paper_burst):
        """The complex envelope spectrum is centred near DC with ~15 MHz occupancy."""
        envelope = paper_burst.output_envelope
        estimate = welch_psd(envelope.samples, envelope.sample_rate, segment_length=1024)
        in_band = band_power(estimate, -8e6, 8e6)
        out_band = band_power(estimate, 20e6, 70e6) + band_power(estimate, -70e6, -20e6)
        assert in_band > 50.0 * out_band

    def test_pa_compression_creates_regrowth(self):
        saturated = ImpairmentConfig().with_amplifier(
            RappAmplifier(gain_db=0.0, saturation_amplitude=1.05, smoothness=2.0)
        )
        clean_tx = HomodyneTransmitter(TransmitterConfig.paper_default(seed=3))
        dirty_tx = HomodyneTransmitter(TransmitterConfig.paper_default(impairments=saturated, seed=3))
        clean = clean_tx.transmit(256).output_envelope
        dirty = dirty_tx.transmit(256).output_envelope
        clean_psd = welch_psd(clean.samples, clean.sample_rate, segment_length=2048)
        dirty_psd = welch_psd(dirty.samples, dirty.sample_rate, segment_length=2048)
        clean_oob = band_power(clean_psd, 15e6, 40e6)
        dirty_oob = band_power(dirty_psd, 15e6, 40e6)
        assert dirty_oob > 3.0 * clean_oob

    def test_iq_imbalance_degrades_constellation(self):
        impaired_config = ImpairmentConfig(
            iq_imbalance=IqImbalance(gain_imbalance_db=1.5, phase_imbalance_deg=8.0)
        )
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(impairments=impaired_config, seed=4))
        burst = transmitter.transmit(128)
        # The impaired envelope differs from the ideal one significantly.
        difference = np.mean(
            np.abs(burst.output_envelope.samples - burst.ideal_envelope.samples) ** 2
        )
        assert difference > 1e-3

    def test_rf_output_band_contains_carrier(self, paper_burst):
        low, high = paper_burst.rf_output.band
        assert low < 1e9 < high
