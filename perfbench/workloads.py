"""The benchmark's three workloads.

Each workload builds its inputs from ``--seed`` alone (the program sees
only those generated inputs), then runs closed-loop ops: the next op starts
when the previous one returns.  ``README.md`` says why each workload exists
and which planned change it should show or must not move.

Every workload also checks its own outputs: reference digests committed in
``references/`` (verdicts exact, measurements within
:class:`repro.store.BaselineTolerances`) plus invariants that need no
reference, such as bit-identical repeats.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bist import BistConfig, TransmitterBist
from repro.bist.campaign import ConverterSpec
from repro.faults import FaultCampaign, FaultCampaignResult, fault_grid
from repro.monitor import DriftDetectorConfig, StreamingMonitor, apply_gain_drift
from repro.service import Coordinator
from repro.signals.standards import get_profile
from repro.store import BaselineComparator, canonical_json, report_metrics
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

import hostspeed
import measure

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

PAPER_PROFILE = "paper-qpsk-1ghz"

#: Report metrics a reference digest must reproduce within BaselineTolerances.
TOLERANCED_METRICS = (
    "acpr_worst_db",
    "occupied_bandwidth_hz",
    "evm_percent",
    "mask_margin_db",
    "skew_estimate_ps",
)

#: Counters every workload reports per op (zero where a layer is idle).
COUNT_NAMES = (
    "lms_iterations",
    "compiler_groups",
    "scenarios_batched",
    "structure_cache_hits",
    "structure_cache_misses",
    "structure_cache_evictions",
    "structure_cache_hit_ratio",
    "service_executed",
    "service_planned_hits",
    "service_retries",
    "warm_store_hits",
    "warm_hit_ratio",
    "monitor_windows",
    "welch_segments",
)


@dataclass
class Op:
    """One timed operation and what it cost the process (and its children).

    ``reference_before`` is the host-speed kernel's time just before the op;
    ``reference`` the kernel time read around it (``hostspeed.local_reading``),
    set when the run closes.
    """

    op_id: str
    kind: str
    traced: bool
    wall: float
    minor_faults: int
    sys_seconds: float
    ok: bool
    reference_before: float
    reference: float = 0.0

    def normalised(self) -> float:
        """Wall time in seconds of the nominal host (see ``hostspeed.py``)."""
        return hostspeed.normalised(self.wall, self.reference)


def _usage() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_minflt + children.ru_minflt, own.ru_stime + children.ru_stime


def _sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def report_digest(report) -> dict:
    """Verdict, gated metrics and content hash of one BIST report."""
    return {
        "verdict": report.verdict.value,
        "metrics": report_metrics(report),
        "sha256": _sha256(report.to_dict()),
    }


def _within(metric: str, expected, actual, comparator) -> bool:
    if expected is None or actual is None:
        return expected is None and actual is None
    return abs(actual - expected) <= comparator.metric_tolerance(metric, expected)


def compare_digest(label: str, reference: dict, current: dict, comparator) -> list:
    """Mismatches of one report digest against its reference (empty when it agrees)."""
    problems = []
    if current["verdict"] != reference["verdict"]:
        problems.append(
            f"{label}: verdict {current['verdict']} != reference {reference['verdict']}"
        )
    for metric in TOLERANCED_METRICS:
        expected = reference["metrics"].get(metric)
        actual = current["metrics"].get(metric)
        if not _within(metric, expected, actual, comparator):
            problems.append(f"{label}: {metric} {actual!r} vs reference {expected!r}")
    return problems


class Workload:
    """Closed-loop bookkeeping shared by the workloads.

    Subclasses build their inputs, run one *cycle* (one op, or a cold job
    plus its warm resubmissions), and check their outputs.  ``primary`` is
    the op kind whose median sets the throughput; ``items_per_op`` is the
    work one primary op does.
    """

    name = ""
    primary = ""
    items_per_op = 1
    min_cycles = 1
    max_cycles = 100_000

    def __init__(self, seed: int, work_dir, tracer=None) -> None:
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.ops: list[Op] = []

    def timed(self, op_id: str, kind: str, traced: bool, function):
        """Run ``function`` as one op; returns its result (``None`` if it raised)."""
        reference_before = hostspeed.kernel_seconds()
        if self.tracer is not None:
            self.tracer.op = op_id
        # Every op starts from an empty cyclic-GC backlog, so each pays for
        # the collections its own allocations trigger, not for the history
        # of the ops before it.
        gc.collect()
        faults, system = _usage()
        start = time.perf_counter()
        try:
            result, ok = function(), True
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"{op_id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result, ok = None, False
        wall = time.perf_counter() - start
        faults_after, system_after = _usage()
        if self.tracer is not None:
            self.tracer.op = None
        self.ops.append(
            Op(
                op_id,
                kind,
                traced,
                wall,
                faults_after - faults,
                system_after - system,
                ok,
                reference_before,
            )
        )
        return result

    def close(self) -> None:
        """Time the kernel once more and read each op's host speed around it."""
        readings = [op.reference_before for op in self.ops] + [hostspeed.kernel_seconds()]
        for index, op in enumerate(self.ops):
            op.reference = hostspeed.local_reading(readings, index)

    def _untraced(self, kind: str) -> list:
        return [op for op in self.ops if op.kind == kind and op.ok and not op.traced]

    def walls(self, kind: str) -> list:
        """Wall times of the successful untraced ops of one kind."""
        return [op.wall for op in self._untraced(kind)]

    def normalised(self, kind: str) -> list:
        """:meth:`walls` in seconds of the nominal host (after :meth:`close`)."""
        return [op.normalised() for op in self._untraced(kind)]

    def gated_times(self) -> list:
        """Per-op times of the primary kind that throughput and latency are read from."""
        return self.normalised(self.primary)

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}-seed{self.seed}.json"

    def load_reference(self):
        path = self.reference_path()
        return json.loads(path.read_text()) if path.is_file() else None

    def write_reference(self) -> Path:
        path = self.reference_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.reference_payload(), indent=1) + "\n")
        return path

    def counts(self) -> dict:
        """Exact per-op counters read from the program's return values."""
        return dict.fromkeys(COUNT_NAMES, 0)


# --------------------------------------------------------------------------- #
# paper-bist
# --------------------------------------------------------------------------- #
class PaperBist(Workload):
    """One ``TransmitterBist.run()`` at the paper's Section V point per op.

    Every op gets a fresh fault-free device drawn from the seed: transmitter
    and converter seeds, a DCDE static error within +-8 ps and a channel-1
    skew within +-3 ps.  Only ``run()`` is timed.
    """

    name = "paper-bist"
    primary = "run"
    #: Devices forming the accuracy metrics and the reference digests.  Every
    #: run executes at least this many ops, so those figures depend on the
    #: seed alone and repeat exactly.
    ACCURACY_DEVICES = 24
    min_cycles = ACCURACY_DEVICES
    max_cycles = 5000

    def build_inputs(self) -> None:
        self.profile = get_profile(PAPER_PROFILE)
        self.config = BistConfig()
        rng = np.random.default_rng(self.seed)
        count = self.max_cycles
        self.devices = list(
            zip(
                rng.integers(0, 2**31, count).tolist(),
                rng.integers(0, 2**31, count).tolist(),
                rng.uniform(-8e-12, 8e-12, count).tolist(),
                rng.uniform(-3e-12, 3e-12, count).tolist(),
            )
        )
        self.digests: dict[int, dict] = {}
        self.calibrations: dict[int, tuple] = {}
        self.lms_iterations: list[int] = []

    def engine(self, index: int) -> TransmitterBist:
        transmitter_seed, converter_seed, dcde_error, skew = self.devices[index]
        transmitter = HomodyneTransmitter(
            TransmitterConfig.from_profile(self.profile, seed=transmitter_seed)
        )
        converter = ConverterSpec(
            dcde_static_error_seconds=dcde_error,
            channel1_skew_seconds=skew,
            seed=converter_seed,
        ).build(self.config.acquisition_bandwidth_hz)
        return TransmitterBist(transmitter, converter, profile=self.profile, config=self.config)

    def warm_up(self) -> None:
        self.warm_up_digest = report_digest(self.engine(0).run())

    def cycle(self, index: int, traced: bool) -> None:
        engine = self.engine(index)
        report = self.timed(f"run-{index}", "run", traced, engine.run)
        if report is None:
            return
        calibration = report.calibration
        self.digests[index] = report_digest(report)
        self.calibrations[index] = (
            calibration.estimated_delay_seconds,
            calibration.true_delay_seconds,
        )
        self.lms_iterations.append(calibration.iterations)

    def accuracy_devices(self) -> list:
        return [index for index in range(self.ACCURACY_DEVICES) if index in self.digests]

    def check(self) -> list:
        problems = []
        if self.digests.get(0, {}).get("sha256") != self.warm_up_digest["sha256"]:
            problems.append("device 0 did not reproduce its warm-up report bit for bit")
        if len(self.accuracy_devices()) < self.ACCURACY_DEVICES:
            problems.append("not every accuracy device produced a report")
        reference = self.load_reference()
        if reference is not None:
            comparator = BaselineComparator()
            for index, expected in enumerate(reference["digests"]):
                current = self.digests.get(index)
                if current is None:
                    problems.append(f"device {index}: no report to compare")
                    continue
                problems += compare_digest(f"device {index}", expected, current, comparator)
        return problems

    def reference_payload(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "digests": [self.digests[index] for index in range(self.ACCURACY_DEVICES)],
        }

    def named_metrics(self) -> list:
        devices = self.accuracy_devices()
        runs = self.walls("run")
        failures = sum(self.digests[index]["verdict"] == "fail" for index in devices)
        return [
            ("bist_run_s_p50", measure.median(runs), "s"),
            (
                "skew_error_ps_rms",
                measure.skew_error_ps_rms(self.calibrations[index] for index in devices),
                "ps",
            ),
            ("false_fail_rate", failures / len(devices), "ratio"),
        ]

    def counts(self) -> dict:
        counts = super().counts()
        counts["lms_iterations"] = float(np.mean(self.lms_iterations))
        return counts


# --------------------------------------------------------------------------- #
# fault-campaign
# --------------------------------------------------------------------------- #
class FaultCampaignJob(Workload):
    """A fault campaign submitted as a service job, cold and then warm.

    A cycle is one cold op — the 28-scenario grid run by a one-worker
    compiling coordinator into an empty store — followed by warm ops that
    resubmit the same grid against the populated store (every scenario a
    store hit, nothing forked).  Each op folds its outcomes into a
    :class:`~repro.faults.FaultDictionary`.
    """

    name = "fault-campaign"
    primary = "cold"
    min_cycles = 3
    max_cycles = 1000
    PROFILES = (PAPER_PROFILE, "ofdm-uhf-qpsk-400mhz")
    FAMILIES = (
        "pa-compression",
        "iq-imbalance",
        "lo-leakage",
        "phase-noise",
        "tiadc-skew",
        "dcde-error",
    )
    SEVERITIES = (0.5, 1.0)
    REFERENCE_UNITS = 2
    WARM_OPS_PER_CYCLE = 6

    def build_inputs(self) -> None:
        self.config = BistConfig(seed=self.seed)
        self.campaign = FaultCampaign(
            self.PROFILES,
            fault_grid(self.FAMILIES, self.SEVERITIES),
            bist_config=self.config,
            num_repeats=1,
            num_reference=self.REFERENCE_UNITS,
        )
        self.scenarios = self.campaign.build_scenarios()
        self.items_per_op = len(self.scenarios)
        self.jobs: dict[str, list] = {"cold": [], "warm": []}
        self.store_roots: list[Path] = []

    def coordinator(self, store_root) -> Coordinator:
        return Coordinator(
            store_root,
            num_workers=1,
            bist_config=self.config,
            seed_policy="per-scenario",
            compile_groups=True,
        )

    def job(self, store_root):
        service = self.coordinator(store_root).run(self.scenarios)
        result = FaultCampaignResult(
            execution=service.execution,
            points=self.campaign.points,
            num_repeats=1,
            num_reference=self.REFERENCE_UNITS,
        )
        return service, result.dictionary()

    def store_root(self, tag) -> Path:
        """A fresh store directory, deleted only when the run closes.

        Kernel readings taken right after deleting a store's fsync'd
        shards read high, so no store is deleted while ops are timed.
        """
        root = self.work_dir / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(root, ignore_errors=True)
        self.store_roots.append(root)
        return root

    def warm_up(self) -> None:
        # Scenarios execute in a forked worker, so only this process's share
        # (planning, fingerprints, store reads and writes, messages) warms
        # here: the fault-free units of both profiles, cold and then warm.
        root = self.store_root("warm-up")
        units = self.scenarios[: self.REFERENCE_UNITS * len(self.PROFILES)]
        for _ in range(2):
            self.coordinator(root).run(units)

    def close(self) -> None:
        super().close()
        for root in self.store_roots:
            shutil.rmtree(root, ignore_errors=True)

    def _record(self, kind: str, result) -> None:
        if result is None:
            return
        service, dictionary = result
        execution = service.execution
        if execution.errors:
            self.ops[-1].ok = False
        compiler = execution.compiler_stats
        self.jobs[kind].append(
            {
                "digests": [
                    None if outcome.report is None else report_digest(outcome.report)
                    for outcome in execution.outcomes
                ],
                "labels": [outcome.label for outcome in execution.outcomes],
                "executed": service.stats.executed,
                "planned_hits": service.stats.planned_cache_hits,
                "retries": service.stats.retries,
                "compiler": None if compiler is None else compiler.to_dict(),
                "lms_iterations": sum(
                    outcome.report.calibration.iterations
                    for outcome in execution.outcomes
                    if outcome.ok and not outcome.cached
                ),
                "coverage": dictionary.coverage().coverage,
                "false_alarm_rate": dictionary.false_alarm_rate(),
            }
        )

    def cycle(self, index: int, traced: bool) -> None:
        root = self.store_root(index)
        result = self.timed(f"cold-{index}", "cold", traced, lambda: self.job(root))
        self._record("cold", result)
        for warm_index in range(self.WARM_OPS_PER_CYCLE):
            result = self.timed(
                f"warm-{index}.{warm_index}", "warm", traced, lambda: self.job(root)
            )
            self._record("warm", result)

    @staticmethod
    def _hashes(job: dict) -> list:
        return [None if digest is None else digest["sha256"] for digest in job["digests"]]

    def check(self) -> list:
        problems = []
        cold, warm = self.jobs["cold"], self.jobs["warm"]
        if not cold:
            return ["no cold campaign completed"]
        first = self._hashes(cold[0])
        if None in first:
            problems.append("the cold campaign produced error outcomes")
        for number, job in enumerate(cold[1:], start=1):
            if self._hashes(job) != first:
                problems.append(f"cold op {number} is not bit-identical to cold op 0")
        for number, job in enumerate(warm):
            if self._hashes(job) != first:
                problems.append(f"warm op {number} is not bit-identical to the cold op")
            hits = measure.warm_hit_accounting(
                len(self.scenarios), job["planned_hits"], job["executed"]
            )
            if not hits["fully_warm"]:
                problems.append(
                    f"warm op {number}: {job['planned_hits']} store hits, "
                    f"{job['executed']} executed"
                )
        reference = self.load_reference()
        if reference is not None:
            comparator = BaselineComparator()
            for label, expected, current in zip(
                reference["labels"], reference["digests"], cold[0]["digests"]
            ):
                if current is None:
                    problems.append(f"{label}: no report to compare")
                    continue
                problems += compare_digest(label, expected, current, comparator)
            if reference["labels"] != cold[0]["labels"]:
                problems.append("scenario labels differ from the reference")
        return problems

    def reference_payload(self) -> dict:
        first = self.jobs["cold"][0]
        return {
            "workload": self.name,
            "seed": self.seed,
            "labels": first["labels"],
            "digests": first["digests"],
        }

    def named_metrics(self) -> list:
        first = self.jobs["cold"][0]
        return [
            (
                "campaign_scenarios_per_s",
                len(self.scenarios) / measure.median(self.walls("cold")),
                "1/s",
            ),
            ("resubmit_s_p50", measure.median(self.walls("warm")), "s"),
            ("fault_coverage", first["coverage"], "ratio"),
            ("false_fail_rate", first["false_alarm_rate"], "ratio"),
        ]

    def gated_times(self) -> list:
        # A cold job lasts about 9 s and no kernel reading falls inside it.
        # The readings at its two ends described it poorly: over 14 runs
        # (kernel without its small-row part) its median spread 16 % read
        # against them and 21 % as measured, but 11 % read against the
        # median reading of the whole run, which the cold jobs fill nine
        # tenths of.
        run_reading = measure.median(op.reference_before for op in self.ops)
        return [hostspeed.normalised(wall, run_reading) for wall in self.walls("cold")]

    def counts(self) -> dict:
        counts = super().counts()
        cold = self.jobs["cold"]
        warm = self.jobs["warm"]
        compiler = cold[0]["compiler"] or {}
        cache = compiler.get("structure_cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        counts.update(
            lms_iterations=float(np.mean([job["lms_iterations"] for job in cold])),
            compiler_groups=compiler.get("groups_formed", 0),
            scenarios_batched=compiler.get("scenarios_batched", 0),
            structure_cache_hits=cache.get("hits", 0),
            structure_cache_misses=cache.get("misses", 0),
            structure_cache_evictions=cache.get("evictions", 0),
            structure_cache_hit_ratio=cache.get("hits", 0) / lookups if lookups else 0.0,
            service_executed=float(np.mean([job["executed"] for job in cold])),
            service_planned_hits=float(np.mean([job["planned_hits"] for job in cold])),
            service_retries=float(np.mean([job["retries"] for job in cold])),
        )
        if warm:
            hits = float(np.mean([job["planned_hits"] for job in warm]))
            counts.update(warm_store_hits=hits, warm_hit_ratio=hits / len(self.scenarios))
        return counts


# --------------------------------------------------------------------------- #
# drift-monitor
# --------------------------------------------------------------------------- #
class DriftMonitor(Workload):
    """One monitored streaming session over a burst with a gain ramp.

    The burst (built in set-up) is 32,768 symbols of ``paper-qpsk-1ghz``
    with a -3 dB gain ramp from its midpoint.  Each op streams it through
    :meth:`StreamingMonitor.from_transmission` in block sizes drawn from the
    seed; the report must not depend on that partition.
    """

    name = "drift-monitor"
    primary = "session"
    min_cycles = 5
    max_cycles = 10_000
    BURST_SYMBOLS = 32_768
    BURST_SEED = 2014
    DRIFT_DB = -3.0
    WINDOW_SAMPLES = 2048
    SEGMENT_LENGTH = 256
    WARMUP_WINDOWS = 5
    MIN_BLOCK = 64
    MAX_BLOCK = 8192

    def build_inputs(self) -> None:
        profile = get_profile(PAPER_PROFILE)
        transmitter = HomodyneTransmitter(
            TransmitterConfig.from_profile(profile, seed=self.BURST_SEED)
        )
        self.burst = transmitter.transmit(num_symbols=self.BURST_SYMBOLS)
        clean = self.burst.output_envelope.samples
        onset_sample = clean.size // 2
        self.onset_window = onset_sample // self.WINDOW_SAMPLES
        self.stream = apply_gain_drift(clean, onset_sample, self.DRIFT_DB)
        self.items_per_op = int(self.stream.size)
        self.partition_rng = np.random.default_rng(self.seed)
        self.sessions: list[dict] = []

    def blocks(self) -> list:
        """The next session's partition of the stream, drawn from the seed."""
        edges = [0]
        while edges[-1] < self.stream.size:
            size = int(self.partition_rng.integers(self.MIN_BLOCK, self.MAX_BLOCK + 1))
            edges.append(min(self.stream.size, edges[-1] + size))
        return [self.stream[start:stop] for start, stop in zip(edges, edges[1:])]

    def session(self, blocks):
        monitor = StreamingMonitor.from_transmission(
            self.burst,
            window_samples=self.WINDOW_SAMPLES,
            segment_length=self.SEGMENT_LENGTH,
            detector=DriftDetectorConfig(warmup_windows=self.WARMUP_WINDOWS),
        )
        for block in blocks:
            monitor.ingest(block)
        return monitor.report()

    @staticmethod
    def summarise(report) -> dict:
        return {
            "sha256": _sha256(report.to_dict()),
            "windows": report.num_windows,
            "segments": report.segments_accumulated,
            "alarms": [[alarm.metric, alarm.window_index] for alarm in report.alarms],
            "window_metrics": [
                [
                    window.output_power,
                    window.acpr_worst_db,
                    window.occupied_bandwidth_hz,
                    window.evm_percent,
                ]
                for window in report.windows
            ],
        }

    def warm_up(self) -> None:
        self.warm_up_summary = self.summarise(self.session(self.blocks()))

    def cycle(self, index: int, traced: bool) -> None:
        blocks = self.blocks()
        report = self.timed(f"session-{index}", "session", traced, lambda: self.session(blocks))
        if report is not None:
            self.sessions.append(self.summarise(report))

    def reference_path(self) -> Path:
        # The burst does not depend on the seed and the report does not
        # depend on the partition, so one reference serves every seed.
        return REFERENCE_DIR / f"{self.name}.json"

    def alarm_figures(self) -> tuple:
        summary = self.sessions[0]
        return measure.alarm_latency(
            [window for _, window in summary["alarms"]], self.onset_window
        )

    def check(self) -> list:
        problems = []
        if not self.sessions:
            return ["no monitored session completed"]
        expected_hash = self.warm_up_summary["sha256"]
        for number, summary in enumerate(self.sessions):
            if summary["sha256"] != expected_hash:
                problems.append(f"session {number}: report differs under another block partition")
        latency, false_alarms = self.alarm_figures()
        if false_alarms:
            problems.append(f"{false_alarms} alarm(s) before the drift onset")
        if latency is None:
            problems.append("the drift was never flagged")
        reference = self.load_reference()
        if reference is not None:
            problems += self._compare(reference, self.sessions[0])
        return problems

    @staticmethod
    def _compare(reference: dict, current: dict) -> list:
        problems = []
        for key in ("windows", "segments", "alarms"):
            if current[key] != reference[key]:
                problems.append(f"{key}: {current[key]!r} vs reference {reference[key]!r}")
        comparator = BaselineComparator()
        metrics = ("output_power", "acpr_worst_db", "occupied_bandwidth_hz", "evm_percent")
        for index, (expected, actual) in enumerate(
            zip(reference["window_metrics"], current["window_metrics"])
        ):
            for metric, want, got in zip(metrics, expected, actual):
                if not _within(metric, want, got, comparator):
                    problems.append(f"window {index}: {metric} {got!r} vs reference {want!r}")
        return problems

    def reference_payload(self) -> dict:
        summary = dict(self.sessions[0])
        summary.pop("sha256")
        return {"workload": self.name, **summary}

    def named_metrics(self) -> list:
        latency, false_alarms = self.alarm_figures()
        return [
            (
                "monitor_msamples_per_s",
                self.items_per_op / 1e6 / measure.median(self.walls("session")),
                "Msamples/s",
            ),
            ("alarm_latency_windows", latency, "windows"),
            ("false_alarms", false_alarms, "count"),
        ]

    def counts(self) -> dict:
        counts = super().counts()
        summary = self.sessions[0]
        counts.update(monitor_windows=summary["windows"], welch_segments=summary["segments"])
        return counts


WORKLOADS = {
    workload.name: workload for workload in (PaperBist, FaultCampaignJob, DriftMonitor)
}
