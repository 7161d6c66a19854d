"""Tests of the benchmark harness's own arithmetic and wiring.

They cover what the benchmark computes from its measurements — self time
with nested children, the RMS skew error, alarm-latency extraction, the
tail-percentile rule, warm-op hit accounting, the reading of op times
against the host-speed reference kernel — plus the tracer's rebinding and
the agreement between ``BENCHMARK.json`` and the harness.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import measure
import run
import workloads
from spans import Tracer, self_times, union_length

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id, parent, start, end, name="x", op="op-0"):
    return [span_id, parent, name, start, end, op, 1, None]


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 6.0),
        _span(4, 2, 2.0, 3.0),  # grandchild: charged to span 2 only
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    # Nested spans partition the root's wall time exactly.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # A forked worker's span can overlap the parent's own child spans.
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0), _span(3, 1, 3.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_the_parent_interval():
    assert union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    selfs = self_times([_span(1, None, 0.0, 10.0), _span(2, 1, 9.0, 15.0)])
    assert selfs[1] == pytest.approx(9.0)


def test_rms_skew_error_is_in_picoseconds():
    pairs = [(181e-12, 180e-12), (178e-12, 180e-12), (180e-12, 180e-12)]
    expected = math.sqrt((1.0 + 4.0 + 0.0) / 3.0)
    assert measure.skew_error_ps_rms(pairs) == pytest.approx(expected)


def test_alarm_latency_and_false_alarms():
    assert measure.alarm_latency([131, 140], onset_window=128) == (3, 0)
    assert measure.alarm_latency([140, 3, 131], onset_window=128) == (3, 1)
    assert measure.alarm_latency([128], onset_window=128) == (0, 0)
    assert measure.alarm_latency([], onset_window=128) == (None, 0)


@pytest.mark.parametrize(
    "samples, expected",
    [(5, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_supported_percentile_keeps_ten_samples_beyond(samples, expected):
    assert measure.highest_supported_percentile(samples) == expected


def test_timing_summary_reports_count_median_and_tail():
    values = list(range(1, 41))
    summary = measure.timing_summary(values)
    assert summary["n"] == 40
    assert summary["p50"] == pytest.approx(20.5)
    assert summary["tail_percentile"] == 75.0
    assert summary["tail_value"] == pytest.approx(np.percentile(values, 75.0))


def test_normalised_time_reads_the_op_against_the_kernel_around_it():
    nominal = hostspeed.NOMINAL_SECONDS
    # On a host running the kernel at its nominal speed a time is unchanged.
    assert hostspeed.normalised(0.6, nominal) == pytest.approx(0.6)
    # A host half as fast doubles op and kernel alike: the reading holds.
    assert hostspeed.normalised(1.2, 2 * nominal) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        hostspeed.normalised(0.6, 0.0)


def test_local_reading_takes_the_median_of_the_readings_on_either_side():
    readings = [0.010, 0.020, 0.090, 0.030, 0.040]  # one more than the ops
    # Op 0: readings 0 (before) and 1, 2 (after).
    assert hostspeed.local_reading(readings, 0) == pytest.approx(0.020)
    # Op 1: readings 0, 1 before it, 2, 3 after it; the stalled 0.090 does not move it.
    assert hostspeed.local_reading(readings, 1) == pytest.approx(0.025)
    # The last op: readings 2, 3 before it and the trailing reading 4.
    assert hostspeed.local_reading(readings, 3) == pytest.approx(0.040)
    with pytest.raises(IndexError):
        hostspeed.local_reading(readings, 4)


def test_closing_a_run_reads_every_op_against_its_neighbours(monkeypatch):
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: 0.050)
    workload = workloads.Workload(seed=1, work_dir=".")
    workload.ops = [
        workloads.Op(f"op-{index}", "run", False, 1.0, 0, 0.0, True, before)
        for index, before in enumerate((0.010, 0.020, 0.030))
    ]
    workload.close()
    # The last op: readings 1, 2 before it and the trailing 0.050 after it.
    assert [op.reference for op in workload.ops] == pytest.approx([0.020, 0.025, 0.030])
    nominal = hostspeed.NOMINAL_SECONDS
    assert workload.normalised("run") == pytest.approx(
        [nominal / 0.020, nominal / 0.025, nominal / 0.030]
    )


def test_cold_jobs_are_read_against_the_runs_median_reading():
    workload = workloads.FaultCampaignJob(seed=1, work_dir=".")
    workload.ops = [
        workloads.Op("cold-0", "cold", False, 9.0, 0, 0.0, True, 0.030),
        workloads.Op("warm-0.0", "warm", False, 0.15, 0, 0.0, True, 0.020),
        workloads.Op("warm-0.1", "warm", False, 0.15, 0, 0.0, True, 0.024),
    ]
    nominal = hostspeed.NOMINAL_SECONDS
    assert workload.gated_times() == pytest.approx([9.0 * nominal / 0.024])


def test_warm_hit_accounting():
    assert measure.warm_hit_accounting(28, 28, 0) == {"hit_ratio": 1.0, "fully_warm": True}
    partial = measure.warm_hit_accounting(28, 27, 1)
    assert partial["hit_ratio"] == pytest.approx(27 / 28)
    assert not partial["fully_warm"]
    with pytest.raises(ValueError):
        measure.warm_hit_accounting(0, 0, 0)


def test_tracer_rebinds_every_holder_and_restores_originals(tmp_path):
    from repro.bist import measurements
    from repro.dsp import spectrum
    from repro.faults import FaultDictionary

    original = spectrum.welch_psd
    original_fold = FaultDictionary.__dict__["from_campaign"]
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert measurements.welch_psd is spectrum.welch_psd is not original
        tracer.op = "op-7"
        spectrum.welch_psd(np.ones(64), 1.0, segment_length=16)
        assert isinstance(FaultDictionary.__dict__["from_campaign"], classmethod)
    finally:
        tracer.uninstall()
    assert spectrum.welch_psd is original and measurements.welch_psd is original
    assert FaultDictionary.__dict__["from_campaign"] is original_fold
    recorded = [span for span in tracer.spans if span[2] == "dsp.welch"]
    assert len(recorded) == 1 and recorded[0][5] == "op-7"
    assert not tracer.missing


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
