"""Per-layer metrics of a traced run, and which spans and counters feed each.

Self times come from the spans of traced ops only, averaged per op of the
workload's primary kind (run, cold campaign job, monitored session) unless
the name says otherwise.  Exact counts come from the program's own return
values (``Workload.counts``), process figures from ``getrusage`` over the
run's untraced ops.  Every metric is reported on every workload: a layer
that does no work on a workload reads zero there, which is the control the
workload exists to provide.
"""

from __future__ import annotations

from collections import defaultdict

import measure
from spans import WORKER_SPAN, self_times

#: Metric -> span names whose self time (ms per primary op) it sums.
SELF_TIME_MS = {
    "plan_build_ms": ("sampling.plan_build",),
    "plan_evaluate_ms": ("sampling.evaluate",),
    "plan_evaluate_stacked_ms": ("sampling.evaluate_stacked",),
    "render_ms": ("bist.render",),
    "evm_sc_ms": ("bist.evm_sc",),
    "evm_ofdm_ms": ("bist.evm_ofdm",),
    "welch_ms": ("dsp.welch",),
    "acpr_ms": ("bist.acpr",),
    "obw_ms": ("bist.obw",),
    "lms_ms": ("calibration.lms",),
    "transmit_ms": ("transmitter.transmit",),
    "acquire_ms": ("adc.acquire",),
    "prepare_ms": ("bist.prepare",),
    "finish_ms": ("bist.finish",),
    "runner_ms": ("bist.runner",),
    "compiler_ms": ("bist.compiler",),
    "plan_partitions_ms": ("service.plan_partitions",),
    "dictionary_fold_ms": ("faults.fold",),
    "monitor_ingest_ms": ("monitor.ingest",),
    "accumulator_ms": ("monitor.accumulator",),
    "window_spectrum_ms": ("monitor.window_spectrum",),
    "windowed_evm_ms": ("monitor.windowed_evm",),
    "detector_ms": ("monitor.detector",),
}

#: Span counters (see ``spans.TARGETS``) reported as sums per primary op.
SPAN_COUNTS = ("plan_builds", "kernel_elements", "cost_evaluations", "samples_acquired")

#: Every per-layer metric, ``(name, unit)``, grouped by layer.
METRICS = (
    # sampling
    ("plan_builds", "count"),
    ("plan_build_ms", "ms"),
    ("plan_evaluate_ms", "ms"),
    ("plan_evaluate_stacked_ms", "ms"),
    ("kernel_elements", "count"),
    # bist.measurements, dsp
    ("render_ms", "ms"),
    ("evm_sc_ms", "ms"),
    ("evm_ofdm_ms", "ms"),
    ("welch_ms", "ms"),
    ("acpr_ms", "ms"),
    ("obw_ms", "ms"),
    # calibration
    ("lms_ms", "ms"),
    ("lms_iterations", "count"),
    ("cost_evaluations", "count"),
    # transmitter, adc, bist.engine
    ("transmit_ms", "ms"),
    ("acquire_ms", "ms"),
    ("prepare_ms", "ms"),
    ("finish_ms", "ms"),
    ("samples_acquired", "count"),
    # bist.runner, bist.compiler
    ("runner_ms", "ms"),
    ("compiler_ms", "ms"),
    ("compiler_groups", "count"),
    ("scenarios_batched", "count"),
    ("structure_cache_hits", "count"),
    ("structure_cache_misses", "count"),
    ("structure_cache_evictions", "count"),
    ("structure_cache_hit_ratio", "ratio"),
    # store
    ("fingerprint_ms_per_scenario", "ms"),
    ("store_put_ms_per_scenario", "ms"),
    ("store_put_bytes_per_scenario", "bytes"),
    ("store_load_ms_per_warm_op", "ms"),
    ("store_read_bytes_per_warm_op", "bytes"),
    ("warm_store_hits", "count"),
    ("warm_hit_ratio", "ratio"),
    # service
    ("plan_partitions_ms", "ms"),
    ("job_overhead_ms", "ms"),
    ("service_executed", "count"),
    ("service_planned_hits", "count"),
    ("service_retries", "count"),
    # faults
    ("scenario_build_ms", "ms"),
    ("dictionary_fold_ms", "ms"),
    # monitor
    ("monitor_ingest_ms", "ms"),
    ("accumulator_ms", "ms"),
    ("window_spectrum_ms", "ms"),
    ("windowed_evm_ms", "ms"),
    ("detector_ms", "ms"),
    ("monitor_windows", "count"),
    ("welch_segments", "count"),
    # process
    ("minor_faults", "count"),
    ("sys_cpu_ms", "ms"),
    # accounting
    ("unattributed_ms", "ms"),
    ("tracing_overhead_pct", "%"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(workload, spans) -> tuple:
    """``(metrics, unattributed)``: every per-layer metric and each traced op's remainder.

    ``unattributed`` maps each traced op to its wall time minus the self
    time of all its spans (in ms) — the part no layer boundary accounts for.
    """
    selfs = self_times(spans)
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[5]].append(span)
    traced = [op for op in workload.ops if op.traced and op.ok]
    primary = [op for op in traced if op.kind == workload.primary]
    warm = [op for op in traced if op.kind == "warm"]
    per_primary = max(1, len(primary))
    scenarios = len(getattr(workload, "scenarios", ()))

    def self_ms(ops, names) -> float:
        return 1e3 * sum(
            selfs[span[0]] for op in ops for span in by_op[op.op_id] if span[2] in names
        )

    def counter(ops, key) -> float:
        return sum(
            (span[7] or {}).get(key, 0) for op in ops for span in by_op[op.op_id]
        )

    values = {name: self_ms(primary, names) / per_primary for name, names in SELF_TIME_MS.items()}
    values.update({key: counter(primary, key) / per_primary for key in SPAN_COUNTS})
    values.update(workload.counts())

    per_scenario = max(1, len(primary) * scenarios)
    values["fingerprint_ms_per_scenario"] = (
        self_ms(primary, ("store.fingerprint",)) / per_scenario if scenarios else 0.0
    )
    values["store_put_ms_per_scenario"] = (
        self_ms(primary, ("store.put",)) / per_scenario if scenarios else 0.0
    )
    values["store_put_bytes_per_scenario"] = (
        counter(primary, "bytes_written") / per_scenario if scenarios else 0.0
    )
    values["store_load_ms_per_warm_op"] = self_ms(warm, ("store.load",)) / max(1, len(warm))
    values["store_read_bytes_per_warm_op"] = counter(warm, "bytes_read") / max(1, len(warm))
    values["scenario_build_ms"] = 1e3 * sum(
        selfs[span[0]] for span in by_op[None] if span[2] == "faults.build_scenarios"
    )
    values["job_overhead_ms"] = _mean(
        1e3
        * (
            op.wall
            - sum(span[4] - span[3] for span in by_op[op.op_id] if span[2] == WORKER_SPAN)
        )
        for op in primary
        if scenarios
    )

    untraced = [
        op for op in workload.ops if not op.traced and op.ok and op.kind == workload.primary
    ]
    values["minor_faults"] = measure.median(op.minor_faults for op in untraced)
    values["sys_cpu_ms"] = 1e3 * measure.median(op.sys_seconds for op in untraced)

    unattributed = {
        op.op_id: 1e3 * (op.wall - sum(selfs[span[0]] for span in by_op[op.op_id]))
        for op in traced
    }
    values["unattributed_ms"] = _mean(unattributed[op.op_id] for op in primary)
    traced_p50 = measure.median(op.wall for op in primary)
    untraced_p50 = measure.median(op.wall for op in untraced)
    values["tracing_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return {name: values[name] for name, _ in METRICS}, unattributed
