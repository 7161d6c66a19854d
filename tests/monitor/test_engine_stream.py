"""Engine integration: ``TransmitterBist.stream()`` drives the monitor.

The streaming layer plugs into the batch BIST engine — the reconstructed
envelope of one acquisition becomes the monitored stream — so the same
loopback path the paper evaluates offline gates continuously too.
"""

import pytest

from repro.bist import BistConfig, CampaignScenario, TransmitterBist, build_scenario_engine
from repro.bist.campaign import ConverterSpec
from repro.monitor import DriftDetectorConfig, MonitorReport
from repro.signals.standards import get_profile
from repro.transmitter import HomodyneTransmitter, TransmitterConfig


@pytest.fixture(scope="module")
def engine_and_burst():
    return build_scenario_engine(CampaignScenario(profile="paper-qpsk-1ghz"))


class TestEngineStream:
    def test_stream_returns_a_monitor_report(self, engine_and_burst):
        engine, burst = engine_and_burst
        report = engine.stream(burst)
        assert isinstance(report, MonitorReport)
        assert report.num_windows >= 1
        assert report.samples_ingested > 0
        # The windows carry real measurements of the reconstructed envelope.
        assert all(window.output_power > 0.0 for window in report.windows)

    def test_clean_acquisition_raises_no_alarms(self, engine_and_burst):
        engine, burst = engine_and_burst
        report = engine.stream(burst)
        assert report.alarms == ()

    def test_single_carrier_default_window_measures_evm(self):
        # An eighth of the envelope is too narrow to hold 16 symbols inside
        # the demodulator's edge guards; on a record long enough for the
        # warm-up windows plus one, the default window widens to measure.
        engine, _ = build_scenario_engine(
            CampaignScenario(profile="paper-qpsk-1ghz"),
            BistConfig(num_samples_fast=1200, num_samples_slow=600),
        )
        report = engine.stream()
        assert report.num_windows >= DriftDetectorConfig().warmup_windows + 1
        measured = [w for w in report.windows if w.evm_percent is not None]
        assert measured
        assert all(window.evm_percent < 5.0 for window in measured)

    def test_default_session_leaves_warm_up(self):
        # At BistConfig() the paper envelope holds 605 samples; widening the
        # window to the 481 samples a window EVM needs left one window
        # against five warm-up windows, so no metric ever got a baseline.
        config = BistConfig()
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        converter = ConverterSpec()(config.acquisition_bandwidth_hz)
        report = TransmitterBist(transmitter, converter, config=config).stream()
        assert report.num_windows >= DriftDetectorConfig().warmup_windows + 1
        for metric in ("output_power", "acpr_worst_db", "occupied_bandwidth_hz"):
            assert report.baselines[metric] is not None, metric
        # Windows too short for EVM say so instead of dropping it silently.
        for window in report.windows:
            assert window.evm_percent is not None or window.evm_skipped_reason

    def test_ofdm_default_window_holds_whole_symbols(self):
        # The default window used to shrink below one OFDM symbol span, so
        # every window skipped EVM; it must widen to fit whole symbols as far
        # as the detector's warm-up allows (none here: the 884-sample record
        # holds one such window, not six).
        profile = get_profile("ofdm-uhf-qpsk-400mhz")
        config = BistConfig(
            num_samples_fast=2048,
            num_samples_slow=1024,
            lms_max_iterations=40,
            num_cost_points=120,
        )
        transmitter = HomodyneTransmitter(TransmitterConfig.from_profile(profile, seed=3))
        converter = ConverterSpec(
            skew_jitter_rms_seconds=1.0e-12,
            seed=5,
        )(config.acquisition_bandwidth_hz)
        engine = TransmitterBist(transmitter, converter, profile=profile, config=config)
        report = engine.stream(detector=DriftDetectorConfig(warmup_windows=0))
        measured = [w for w in report.windows if w.evm_percent is not None]
        assert measured
        assert all(window.evm_percent < 5.0 for window in measured)

    def test_block_size_does_not_change_the_report(self, engine_and_burst):
        # Acquisition noise makes every prepare() a fresh realisation, so the
        # invariance claim needs one shared stage streamed twice.
        engine, burst = engine_and_burst
        stage = engine.prepare(burst)
        small = engine.stream(block_samples=64, stage=stage)
        large = engine.stream(block_samples=4096, stage=stage)
        assert small.to_dict() == large.to_dict()
