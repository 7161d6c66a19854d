"""Tests for OFDM streaming EVM and the ``evm_skipped_reason`` contract.

The streaming monitor used to drop EVM silently for OFDM bursts (the
single-carrier reference refused them) and for any window that was too
short — ``evm_percent=None`` with no explanation.  These tests pin the fix:
every unmeasured window carries an explicit reason, and OFDM windows large
enough for whole symbols are demodulated through the batch OFDM path.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.monitor import (
    MonitorConfig,
    OfdmSymbolReference,
    StreamingMonitor,
    SymbolReference,
    iter_blocks,
    windowed_ofdm_evm,
)
from repro.signals.standards import get_profile, list_profiles
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

OFDM_PROFILES = [name for name in list_profiles() if get_profile(name).family == "ofdm"]


@pytest.fixture(scope="module")
def ofdm_burst():
    config = TransmitterConfig.from_profile(get_profile("ofdm-uhf-qpsk-400mhz"), seed=3)
    return HomodyneTransmitter(config).transmit(num_symbols=512)


class TestOfdmSymbolReference:
    def test_from_transmission_captures_the_grid(self, ofdm_burst):
        reference = OfdmSymbolReference.from_transmission(ofdm_burst)
        params = ofdm_burst.config.ofdm
        assert reference.reference_grid.shape[1] == params.num_subcarriers
        assert reference.oversampling == ofdm_burst.config.samples_per_symbol
        assert reference.samples_per_symbol == params.symbol_length * reference.oversampling

    def test_single_carrier_bursts_are_refused(self):
        burst = HomodyneTransmitter(TransmitterConfig.paper_default(seed=4)).transmit(
            num_symbols=64
        )
        with pytest.raises(ValidationError, match="OFDM burst"):
            OfdmSymbolReference.from_transmission(burst)

    @pytest.mark.parametrize("profile", OFDM_PROFILES)
    def test_symbol_duration_agrees_with_the_batch_measurement(self, profile):
        # The monitor counts envelope samples per symbol; the batch EVM
        # divides the symbol length by the critical rate.  Both must pick
        # the same whole symbols.
        config = TransmitterConfig.from_profile(get_profile(profile), seed=1)
        params = config.ofdm
        reference = OfdmSymbolReference(
            np.zeros((1, params.num_subcarriers), dtype=complex),
            params,
            oversampling=config.samples_per_symbol,
        )
        assert reference.samples_per_symbol / config.envelope_sample_rate == pytest.approx(
            params.symbol_duration_seconds(config.symbol_rate_hz), rel=1e-12
        )

    def test_symbol_reference_points_at_the_ofdm_variant(self, ofdm_burst):
        with pytest.raises(ValidationError, match="OfdmSymbolReference"):
            SymbolReference.from_transmission(ofdm_burst)


class TestWindowedOfdmEvm:
    def test_clean_envelope_demodulates_with_low_evm(self, ofdm_burst):
        reference = OfdmSymbolReference.from_transmission(ofdm_burst)
        envelope = ofdm_burst.output_envelope
        evm, reason = windowed_ofdm_evm(
            envelope.samples,
            envelope.sample_rate,
            float(envelope.start_time),
            reference,
        )
        assert reason is None
        assert evm is not None and evm < 1.0

    def test_short_window_returns_an_explicit_reason(self, ofdm_burst):
        reference = OfdmSymbolReference.from_transmission(ofdm_burst)
        envelope = ofdm_burst.output_envelope
        short = envelope.samples[: reference.samples_per_symbol]
        evm, reason = windowed_ofdm_evm(
            short, envelope.sample_rate, float(envelope.start_time), reference
        )
        assert evm is None
        assert "whole OFDM symbol" in reason

    def test_result_is_invariant_to_window_offset_bookkeeping(self, ofdm_burst):
        # A window starting mid-stream demodulates the same symbols it covers.
        reference = OfdmSymbolReference.from_transmission(ofdm_burst)
        envelope = ofdm_burst.output_envelope
        offset = 3 * reference.samples_per_symbol
        start = float(envelope.start_time) + offset / envelope.sample_rate
        evm, reason = windowed_ofdm_evm(
            envelope.samples[offset:], envelope.sample_rate, start, reference
        )
        assert reason is None
        assert evm < 1.0


class TestStreamingMonitorOfdm:
    @pytest.fixture(scope="class")
    def report(self, ofdm_burst):
        monitor = StreamingMonitor.from_transmission(
            ofdm_burst, window_samples=1024, segment_length=128
        )
        monitor.ingest_stream(iter_blocks(ofdm_burst.output_envelope.samples, 160))
        return monitor.report()

    def test_windows_measure_ofdm_evm(self, report):
        measured = [w for w in report.windows if w.evm_percent is not None]
        assert measured
        for window in measured:
            assert window.evm_percent < 1.0
            assert window.evm_skipped_reason is None

    def test_report_dict_carries_the_skip_reason_field(self, report):
        payload = report.to_dict()
        assert all("evm_skipped_reason" in window for window in payload["windows"])


class TestSkipReasons:
    def test_no_reference_is_an_explicit_reason(self, ofdm_burst):
        envelope = ofdm_burst.output_envelope
        monitor = StreamingMonitor(
            MonitorConfig(
                sample_rate=envelope.sample_rate, window_samples=1024, segment_length=128
            )
        )
        monitor.ingest(ofdm_burst.output_envelope.samples[:1024])
        (window,) = monitor.windows
        assert window.evm_percent is None
        assert window.evm_skipped_reason == "no symbol reference attached"

    def test_real_streams_report_why_evm_is_missing(self, ofdm_burst):
        monitor = StreamingMonitor.from_transmission(
            ofdm_burst, window_samples=1024, segment_length=128
        )
        monitor.ingest(np.real(ofdm_burst.output_envelope.samples[:1024]))
        (window,) = monitor.windows
        assert window.evm_percent is None
        assert "complex-envelope" in window.evm_skipped_reason

    def test_too_small_ofdm_window_reports_symbol_shortfall(self, ofdm_burst):
        reference = OfdmSymbolReference.from_transmission(ofdm_burst)
        window_samples = reference.samples_per_symbol  # one symbol: not enough
        monitor = StreamingMonitor.from_transmission(
            ofdm_burst, window_samples=window_samples, segment_length=32
        )
        monitor.ingest(ofdm_burst.output_envelope.samples[:window_samples])
        (window,) = monitor.windows
        assert window.evm_percent is None
        assert "whole OFDM symbol" in window.evm_skipped_reason

    def test_short_single_carrier_window_reports_symbol_shortfall(self):
        burst = HomodyneTransmitter(TransmitterConfig.paper_default(seed=4)).transmit(
            num_symbols=256
        )
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=64, segment_length=16
        )
        monitor.ingest(burst.output_envelope.samples[:64])
        (window,) = monitor.windows
        assert window.evm_percent is None
        assert "fewer than" in window.evm_skipped_reason
