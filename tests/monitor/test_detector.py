"""Sequential drift-detector tests: latency, false alarms, chart mechanics.

Alarm latency and false-alarm rate are the detector's tested figures of
merit (not just documentation): a drift ramp must alarm within a bounded
number of windows past onset, and stationary seeded noise must raise zero
alarms across many independent streams.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.monitor import (
    MONITORED_METRICS,
    DriftDetector,
    DriftDetectorConfig,
)
from repro.store import BaselineTolerances


def feed_power(detector: DriftDetector, values) -> list:
    alarms = []
    for value in values:
        alarms.extend(detector.update({"output_power": float(value)}))
    return alarms


class TestConfig:
    def test_defaults_validate(self):
        config = DriftDetectorConfig()
        assert config.method == "cusum"
        assert config.warmup_windows == 5

    def test_round_trip_with_nested_tolerances(self):
        config = DriftDetectorConfig(
            method="ewma",
            threshold=2.5,
            tolerances=BaselineTolerances(output_power_rel=0.05),
        )
        rebuilt = DriftDetectorConfig.from_dict(config.to_dict())
        assert rebuilt == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "sprt"},
            {"threshold": 0.0},
            {"warmup_windows": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            DriftDetectorConfig(**kwargs)


class TestWarmupAndBaselines:
    def test_baseline_learned_as_warmup_mean(self):
        detector = DriftDetector(DriftDetectorConfig(warmup_windows=4))
        feed_power(detector, [1.0, 1.2, 0.8, 1.0])
        assert detector.baselines()["output_power"] == pytest.approx(1.0)
        # Other metrics never saw a value and are still warming up.
        assert detector.baselines()["evm_percent"] is None

    def test_no_alarms_during_warmup_even_on_huge_values(self):
        detector = DriftDetector(DriftDetectorConfig(warmup_windows=5))
        alarms = feed_power(detector, [1.0, 100.0, 1.0, 50.0])
        assert alarms == []

    def test_explicit_baseline_skips_learning(self):
        detector = DriftDetector(
            DriftDetectorConfig(warmup_windows=0, threshold=3.0),
            baseline={"output_power": 1.0},
        )
        assert detector.baselines()["output_power"] == 1.0
        # With zero warm-up the scale is the pure one-shot tolerance, so a
        # large excursion alarms immediately once the CUSUM accumulates.
        alarms = feed_power(detector, [10.0, 10.0])
        assert len(alarms) == 1
        assert alarms[0].metric == "output_power"

    def test_unknown_baseline_metric_rejected(self):
        with pytest.raises(ValidationError, match="unknown baseline metric"):
            DriftDetector(baseline={"nonsense": 1.0})

    def test_none_values_are_skipped(self):
        detector = DriftDetector(DriftDetectorConfig(warmup_windows=2))
        detector.update({"output_power": 1.0, "evm_percent": None})
        detector.update({"output_power": 1.0})
        assert detector.baselines()["output_power"] == 1.0
        assert detector.baselines()["evm_percent"] is None


class TestAlarmBehaviour:
    def make_detector(self, **config_overrides) -> DriftDetector:
        kwargs = dict(warmup_windows=5, threshold=5.0)
        kwargs.update(config_overrides)
        return DriftDetector(DriftDetectorConfig(**kwargs))

    def stationary(self, seed: int, n: int, scale: float = 0.01) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return 1.0 + scale * rng.standard_normal(n)

    def test_zero_false_alarms_over_stationary_seeds(self):
        # 20 independent stationary streams of 40 windows: no alarms at all.
        for seed in range(20):
            detector = self.make_detector()
            alarms = feed_power(detector, self.stationary(seed, 40))
            assert alarms == [], f"false alarm on stationary seed {seed}"

    @pytest.mark.parametrize("method,max_latency", [("cusum", 10), ("ewma", 15)])
    def test_alarm_latency_bounded_on_drift_ramp(self, method, max_latency):
        # Stationary for 15 windows, then a ramp of 2% per window: the alarm
        # must land within a bounded number of windows past onset (and never
        # before onset).  EWMA's smoothing trades latency for robustness, so
        # its bound is looser than CUSUM's.
        onset = 15
        for seed in range(5):
            detector = self.make_detector(method=method)
            values = list(self.stationary(100 + seed, onset))
            values += [1.0 + 0.02 * (i + 1) for i in range(25)]
            alarms = feed_power(detector, values)
            assert len(alarms) == 1
            latency = alarms[0].window_index - onset
            assert 0 <= latency <= max_latency, f"seed {seed}: latency {latency}"

    def test_one_alarm_latched_per_metric(self):
        detector = self.make_detector()
        values = list(self.stationary(0, 10)) + [5.0] * 20
        alarms = feed_power(detector, values)
        assert len(alarms) == 1
        assert len(detector.alarms) == 1

    def test_alarm_payload_is_complete_and_serializable(self):
        detector = self.make_detector(warmup_windows=2, threshold=1.0)
        alarms = feed_power(detector, [1.0, 1.0] + [10.0] * 5)
        assert alarms
        alarm = alarms[0]
        assert alarm.metric == "output_power"
        assert alarm.statistic >= alarm.threshold
        assert alarm.baseline == pytest.approx(1.0)
        payload = alarm.to_dict()
        assert payload["metric"] == "output_power"
        assert "DRIFT" in alarm.summary()

    def test_independent_metrics_chart_independently(self):
        detector = self.make_detector(warmup_windows=2, threshold=2.0)
        for _ in range(2):
            detector.update({"output_power": 1.0, "evm_percent": 3.0})
        for _ in range(10):
            detector.update({"output_power": 1.0, "evm_percent": 30.0})
        assert [alarm.metric for alarm in detector.alarms] == ["evm_percent"]

    def test_monitored_metrics_vocabulary(self):
        assert set(MONITORED_METRICS) == {
            "output_power",
            "acpr_worst_db",
            "occupied_bandwidth_hz",
            "evm_percent",
        }


class TestNoiseAdaptiveScale:
    @staticmethod
    def alarm_scale(detector: DriftDetector, excursion: float) -> float:
        """The learned scale, read back from the alarm a large excursion raises."""
        (alarm,) = feed_power(detector, [excursion])
        return abs(alarm.current - alarm.baseline) / alarm.score

    def test_scale_widens_to_measured_noise(self):
        # Warm-up noise far wider than the one-shot tolerance: the learned
        # scale must be the noise, not the (tiny) tolerance floor.
        detector = DriftDetector(DriftDetectorConfig(warmup_windows=20))
        rng = np.random.default_rng(42)
        feed_power(detector, 1.0 + 0.1 * rng.standard_normal(20))
        scale = self.alarm_scale(detector, 11.0)
        tolerance = 1e-3  # BaselineTolerances().output_power_rel around 1.0
        assert scale > tolerance
        assert scale == pytest.approx(0.3, rel=0.5)  # ≈ 3 × std

    def test_tolerance_is_the_floor_for_quiet_metrics(self):
        # Identical warm-up values → zero spread → scale falls back to the
        # one-shot tolerance, never to zero.
        detector = DriftDetector(DriftDetectorConfig(warmup_windows=5))
        feed_power(detector, [1.0] * 5)
        scale = self.alarm_scale(detector, 2.0)
        assert scale == pytest.approx(BaselineTolerances().output_power_rel * 1.0)
