"""StreamingMonitor tests: partition invariance, window metrics, reports.

The monitor's headline invariant is that re-blocking the same stream
changes *nothing*: every window metric, every alarm, and the full report
dictionary are bit-identical for any partition of the stream into ingest
blocks.  The end-to-end drift scenarios (injected gain/noise ramps against
a real transmitted burst) live here too.
"""


import numpy as np
import pytest

from repro.errors import MeasurementError, ValidationError
from repro.monitor import (
    ChannelSpec,
    DriftDetectorConfig,
    MonitorConfig,
    StreamingMonitor,
    apply_gain_drift,
    apply_noise_drift,
    gain_drift_profile,
    iter_blocks,
)
from repro.transmitter import HomodyneTransmitter, TransmitterConfig
from repro.signals import get_profile

RATE = 1.0e6


def tone_stream(size: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(size) / RATE
    tone = np.exp(2j * np.pi * 50e3 * t)
    return tone + 0.01 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def basic_config(**overrides) -> MonitorConfig:
    kwargs = dict(
        sample_rate=RATE,
        window_samples=512,
        segment_length=128,
        channel=ChannelSpec(centre_hz=0.0, bandwidth_hz=200e3),
        detector=DriftDetectorConfig(warmup_windows=3),
    )
    kwargs.update(overrides)
    return MonitorConfig(**kwargs)


class TestPartitionInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reblocking_reproduces_the_report_bit_for_bit(self, seed):
        stream = tone_stream(6000, seed=seed)

        whole = StreamingMonitor(basic_config())
        whole.ingest(stream)

        rng = np.random.default_rng(1000 + seed)
        blocked = StreamingMonitor(basic_config())
        start = 0
        while start < stream.size:
            size = int(rng.integers(1, 700))
            blocked.ingest(stream[start : start + size])
            start += size

        assert whole.report().to_dict() == blocked.report().to_dict()

    def test_window_metrics_identical_under_reblocking(self):
        stream = tone_stream(4096)
        a = StreamingMonitor(basic_config())
        a.ingest_stream(iter_blocks(stream, 333))
        b = StreamingMonitor(basic_config())
        b.ingest_stream(iter_blocks(stream, 512))
        assert [w.to_dict() for w in a.windows] == [w.to_dict() for w in b.windows]


class TestWindowMetrics:
    def test_output_power_is_mean_square_of_the_window(self):
        config = basic_config(channel=None)
        monitor = StreamingMonitor(config)
        stream = tone_stream(1024)
        monitor.ingest(stream)
        assert len(monitor.windows) == 2
        first = monitor.windows[0]
        expected = float(np.mean(np.abs(stream[:512]) ** 2))
        assert first.output_power == expected
        assert first.start_sample == 0
        assert first.num_samples == 512

    def test_channel_metrics_present_with_a_channel_spec(self):
        monitor = StreamingMonitor(basic_config())
        monitor.ingest(tone_stream(2048))
        window = monitor.windows[0]
        assert window.acpr_worst_db is not None
        assert window.occupied_bandwidth_hz is not None
        # No symbol reference → EVM is not measurable.
        assert window.evm_percent is None

    def test_partial_window_is_not_measured(self):
        monitor = StreamingMonitor(basic_config())
        monitor.ingest(tone_stream(700))  # 512 + 188 leftover
        assert len(monitor.windows) == 1
        assert monitor.samples_ingested == 700

    def test_cumulative_spectrum_covers_the_whole_stream(self):
        monitor = StreamingMonitor(basic_config())
        stream = tone_stream(4096)
        monitor.ingest(stream)
        spectrum = monitor.cumulative_spectrum()
        peak = spectrum.frequencies_hz[int(np.argmax(spectrum.psd))]
        assert peak == pytest.approx(50e3, abs=2 * spectrum.resolution_hz)
        with pytest.raises(MeasurementError):
            StreamingMonitor(basic_config()).cumulative_spectrum()


class TestValidation:
    def test_config_type_checked(self):
        with pytest.raises(ValidationError, match="MonitorConfig"):
            StreamingMonitor({"sample_rate": RATE})

    def test_window_must_hold_a_segment(self):
        with pytest.raises(ValidationError):
            MonitorConfig(sample_rate=RATE, window_samples=64, segment_length=128)

    def test_config_round_trip(self):
        config = basic_config()
        rebuilt = MonitorConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_config_written_with_removed_settings_still_loads(self):
        # Welch taper/overlap and the EVM symbol floor used to be fields;
        # configs archived with them load to the fixed values.
        data = basic_config().to_dict()
        # A Hann config's Kaiser beta never shaped its taper.
        data.update(overlap_fraction=0.5, window="hann", kaiser_beta=6.0, min_evm_symbols=16)
        data["detector"].update(drift_reference=1.0, ewma_alpha=0.3, noise_multiplier=3.0)
        data["channel"]["obw_search_half_width_hz"] = None
        assert MonitorConfig.from_dict(data) == basic_config()

    @pytest.mark.parametrize(
        "section, removed",
        [
            (None, {"overlap_fraction": 0.75}),
            (None, {"window": "blackman"}),
            (None, {"window": "kaiser"}),
            (None, {"min_evm_symbols": 8}),
            ("detector", {"ewma_alpha": 0.5}),
            ("channel", {"obw_search_half_width_hz": 2.0e6}),
        ],
    )
    def test_config_written_with_another_removed_setting_is_refused(self, section, removed):
        data = basic_config().to_dict()
        (data if section is None else data[section]).update(removed)
        with pytest.raises(ValidationError):
            MonitorConfig.from_dict(data)

    def test_segments_overlap_by_half(self):
        monitor = StreamingMonitor(basic_config())
        monitor.ingest(tone_stream(600))
        report = monitor.report()
        assert report.samples_ingested == 600
        assert report.num_windows == 1
        # 600 samples in 128-sample segments every 64: 8 segments (starts
        # 0..448), and the 88 samples from 8 * 64 = 512 on are carried over.
        assert report.segments_accumulated == 8
        assert report.pending_samples == 88

    def test_channel_spec_round_trip_and_validation(self):
        spec = ChannelSpec(centre_hz=0.0, bandwidth_hz=1e6, spacing_hz=1.5e6)
        assert ChannelSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValidationError):
            ChannelSpec(centre_hz=0.0, bandwidth_hz=-1.0)


class TestDriftInjection:
    def test_gain_profile_is_unity_before_onset(self):
        profile = gain_drift_profile(100, 40, -6.0)
        assert np.all(profile[:40] == 1.0)
        assert profile[-1] == pytest.approx(10 ** (-6.0 / 20.0))
        assert np.all(np.diff(profile[40:]) < 0.0)

    def test_apply_gain_drift_leaves_input_untouched(self):
        samples = np.ones(50, dtype=complex)
        drifted = apply_gain_drift(samples, 10, -3.0)
        assert np.all(samples == 1.0)
        assert drifted[0] == 1.0
        assert abs(drifted[-1]) == pytest.approx(10 ** (-3.0 / 20.0))

    def test_noise_drift_is_seeded_and_domain_matched(self):
        samples = np.zeros(1000, dtype=complex)
        a = apply_noise_drift(samples, 0, 0.1, seed=3)
        b = apply_noise_drift(samples, 0, 0.1, seed=3)
        assert np.array_equal(a, b)
        assert np.iscomplexobj(a)
        real = apply_noise_drift(np.zeros(1000), 0, 0.1, seed=3)
        assert not np.iscomplexobj(real)
        # Power ramps: the last tenth is much louder than the first tenth.
        assert np.mean(np.abs(a[-100:]) ** 2) > 5 * np.mean(np.abs(a[100:200]) ** 2)


class TestEndToEnd:
    """Transmitted-burst scenarios: the monitor sees what the paper's BIST sees."""

    @pytest.fixture(scope="class")
    def burst(self):
        profile = get_profile("paper-qpsk-1ghz")
        transmitter = HomodyneTransmitter(
            TransmitterConfig.from_profile(profile, seed=2014)
        )
        return transmitter.transmit(num_symbols=2048)

    def test_clean_stream_raises_no_alarms(self, burst):
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=1024, segment_length=256
        )
        monitor.ingest_stream(iter_blocks(burst.output_envelope.samples, 600))
        report = monitor.report()
        assert report.num_windows >= 10
        assert report.alarms == ()
        assert report.first_alarm_window is None
        # EVM was measurable on this single-carrier burst.
        assert any(w.evm_percent is not None for w in report.windows)

    def test_gain_drift_alarms_after_onset(self, burst):
        envelope = burst.output_envelope.samples
        onset = int(0.4 * envelope.size)
        stream = apply_gain_drift(envelope, onset, -3.0)
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=1024, segment_length=256
        )
        monitor.ingest_stream(iter_blocks(stream, 600))
        report = monitor.report()
        assert report.alarms, "gain drift must alarm"
        onset_window = onset // 1024
        assert report.first_alarm_window >= onset_window
        # Bounded latency: within 8 windows of the onset window.
        assert report.first_alarm_window - onset_window <= 8
        assert "output_power" in report.alarmed_metrics

    def test_noise_drift_alarms_on_quality_metrics(self, burst):
        envelope = burst.output_envelope.samples
        onset = int(0.4 * envelope.size)
        stream = apply_noise_drift(envelope, onset, 0.02, seed=2014)
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=1024, segment_length=256
        )
        monitor.ingest_stream(iter_blocks(stream, 600))
        report = monitor.report()
        assert report.alarms
        assert set(report.alarmed_metrics) & {"evm_percent", "acpr_worst_db"}

    def test_report_summary_shape(self, burst):
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=1024, segment_length=256
        )
        monitor.ingest_stream(iter_blocks(burst.output_envelope.samples, 600))
        summary = monitor.report().summary()
        assert summary["windows"] == len(monitor.windows)
        assert summary["window_samples"] == 1024
        assert summary["alarms"] == 0
        assert summary["alarmed_metrics"] == []
        payload = monitor.report().to_dict()
        assert payload["summary"] == summary
        assert len(payload["windows"]) == summary["windows"]
