"""Span tracing of the calls into each ``repro`` layer, from outside the program.

A traced run rebinds the public functions and methods behind each layer to
thin timing wrappers: a method is replaced on its class, a module-level
function in every ``repro`` module that holds a reference to it (the name
each caller module looks up).  Nothing in ``src/`` changes, and
:meth:`Tracer.uninstall` restores every original binding, so traced and
untraced ops can alternate inside one process.

Each call records a span ``[id, parent, name, start, end, op, pid, counts]``.
Spans stay in memory and are written out when the run ends.  The forked
service worker inherits the wrappers; its ``run_partition_worker`` wrapper
writes the worker's spans to a file before returning and the parent merges
them (``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by both
processes, so the timelines line up).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "TARGETS", "self_times", "union_length"]


def _plan_elements(plan, rows: int) -> int:
    return int(rows * plan.evaluation_times.size * (plan.num_taps + 1))


def _count_plan_build(args, kwargs, result, before):
    return {"plan_builds": 1}


def _count_evaluate(args, kwargs, result, before):
    return {"kernel_elements": _plan_elements(args[0], 1)}


def _count_evaluate_many(args, kwargs, result, before):
    return {"kernel_elements": _plan_elements(args[0], len(result))}


def _count_evaluate_stacked(args, kwargs, result, before):
    plans = list(args[0]) if args else list(kwargs["plans"])
    return {"kernel_elements": _plan_elements(plans[0], len(plans))}


def _count_acquired(args, kwargs, result, before):
    return {"samples_acquired": int(result.on_grid.size + result.delayed.size)}


def _count_lms(args, kwargs, result, before):
    return {"cost_evaluations": int(result.cost_evaluations)}


def _shard_size(store) -> int:
    path = store.shard_path
    return path.stat().st_size if path.is_file() else 0


def _before_put(args, kwargs):
    return _shard_size(args[0])


def _count_put(args, kwargs, result, before):
    return {"bytes_written": _shard_size(args[0]) - before}


def _count_load(args, kwargs, result, before):
    return {"bytes_read": sum(path.stat().st_size for path in args[0].shard_paths())}


#: ``(span name, "module:attribute.path", count hook, before hook)``.  The
#: count hook turns a call's arguments and result into exact work counters
#: carried on its span; the before hook captures state the count needs.
TARGETS = (
    ("transmitter.transmit", "repro.transmitter.chain:HomodyneTransmitter.transmit", None, None),
    ("adc.acquire", "repro.adc.tiadc:BpTiadc.acquire", _count_acquired, None),
    ("bist.prepare", "repro.bist.engine:TransmitterBist.prepare", None, None),
    ("bist.finish", "repro.bist.engine:TransmitterBist.finish", None, None),
    ("calibration.lms", "repro.calibration.lms:LmsSkewEstimator.estimate", _count_lms, None),
    (
        "sampling.plan_build",
        "repro.sampling.reconstruction:ReconstructionPlan.__init__",
        _count_plan_build,
        None,
    ),
    (
        "sampling.evaluate",
        "repro.sampling.reconstruction:ReconstructionPlan.evaluate",
        _count_evaluate,
        None,
    ),
    (
        "sampling.evaluate",
        "repro.sampling.reconstruction:ReconstructionPlan.evaluate_many",
        _count_evaluate_many,
        None,
    ),
    (
        "sampling.evaluate_stacked",
        "repro.sampling.reconstruction:evaluate_stacked",
        _count_evaluate_stacked,
        None,
    ),
    ("bist.render", "repro.bist.measurements:render_uniform", None, None),
    ("bist.evm_sc", "repro.bist.measurements:measure_evm", None, None),
    ("bist.evm_ofdm", "repro.bist.measurements:measure_ofdm_evm", None, None),
    ("dsp.welch", "repro.dsp.spectrum:welch_psd", None, None),
    ("bist.acpr", "repro.bist.measurements:measure_acpr", None, None),
    ("bist.obw", "repro.bist.measurements:measure_occupied_bandwidth", None, None),
    ("bist.runner", "repro.bist.runner:CampaignRunner.run", None, None),
    ("bist.compiler", "repro.bist.compiler:CampaignCompiler.execute_group", None, None),
    ("store.fingerprint", "repro.store.fingerprint:scenario_fingerprint", None, None),
    ("store.put", "repro.store.store:CampaignStore.put", _count_put, _before_put),
    ("store.load", "repro.store.store:CampaignStore.load", _count_load, None),
    ("service.plan_partitions", "repro.service.partition:plan_partitions", None, None),
    ("service.job", "repro.service.coordinator:Coordinator.run", None, None),
    ("faults.build_scenarios", "repro.faults.injection:FaultCampaign.build_scenarios", None, None),
    ("faults.fold", "repro.faults.coverage:FaultDictionary.from_campaign", None, None),
    ("monitor.ingest", "repro.monitor.monitor:StreamingMonitor.ingest", None, None),
    ("monitor.accumulator", "repro.monitor.accumulator:StreamingAccumulator.ingest", None, None),
    (
        "monitor.window_spectrum",
        "repro.monitor.accumulator:StreamingAccumulator.spectrum",
        None,
        None,
    ),
    ("monitor.windowed_evm", "repro.monitor.evm:windowed_evm", None, None),
    ("monitor.detector", "repro.monitor.detector:DriftDetector.update", None, None),
)

#: The forked service worker's entry point, looked up by the coordinator.
WORKER_TARGET = "repro.service.worker:run_partition_worker"
WORKER_SPAN = "service.worker"


def _resolve(target: str):
    """``(module, owner or None, attribute, raw object)`` of a target path."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attribute = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return module, owner, attribute, owner.__dict__[attribute]
    return module, None, attribute, getattr(module, attribute)


class Tracer:
    """In-memory span recorder plus the wrapper bindings that feed it.

    ``op`` is the id of the op in progress (``None`` during set-up); every
    span opened meanwhile carries it.  ``worker_dir`` is where forked
    workers leave their spans for :meth:`collect_workers`.
    """

    def __init__(self, worker_dir) -> None:
        self.worker_dir = Path(worker_dir)
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._counter = 0
        self._pid = os.getpid()
        self._bindings: list[tuple] = []
        self._bound = False

    # -- recording --------------------------------------------------------- #
    def _open(self, name: str) -> list:
        self._counter += 1
        span_id = self._pid * 10_000_000 + self._counter
        parent = self._stack[-1] if self._stack else None
        span = [span_id, parent, name, time.perf_counter(), None, self.op, self._pid, None]
        self._stack.append(span_id)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function, count=None, before=None):
        """A timing wrapper recording one span per call of ``function``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span[7] = count(args, kwargs, result, state)
            return result

        return traced

    def _wrap_worker(self, function):
        """Worker entry wrapper: record the child's spans and hand them back."""
        tracer = self

        @functools.wraps(function)
        def traced_worker(*args, **kwargs):
            # Forked child: drop the parent's spans but keep its open stack,
            # so the worker's root span hangs under the coordinator's job.
            tracer.spans = []
            tracer._pid = os.getpid()
            tracer._counter = 0
            span = tracer._open(WORKER_SPAN)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer.worker_dir.mkdir(parents=True, exist_ok=True)
                path = tracer.worker_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.spans))

        return traced_worker

    # -- binding ----------------------------------------------------------- #
    def _bind_all(self) -> None:
        """Build the ``(owner, attribute, original, wrapped)`` binding list once."""
        repro_modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for name, target, count, before in TARGETS + ((WORKER_SPAN, WORKER_TARGET, None, None),):
            try:
                module, owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if owner is not None:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__, count, before))
                else:
                    wrapped = self.wrap(name, raw, count, before)
                self._bindings.append((owner, attribute, raw, wrapped))
                continue
            if name == WORKER_SPAN:
                wrapped = self._wrap_worker(raw)
            else:
                wrapped = self.wrap(name, raw, count, before)
            for holder in repro_modules:
                for attr, value in list(vars(holder).items()):
                    if value is raw:
                        self._bindings.append((holder, attr, raw, wrapped))
        self._bound = True

    def install(self) -> None:
        """Rebind every target to its wrapper."""
        if not self._bound:
            self._bind_all()
        for owner, attribute, _, wrapped in self._bindings:
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attribute, original, _ in self._bindings:
            setattr(owner, attribute, original)

    def collect_workers(self) -> int:
        """Merge (and delete) the span files written by forked workers."""
        if not self.worker_dir.is_dir():
            return 0
        paths = sorted(self.worker_dir.glob("worker-*.json"))
        for path in paths:
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()
        return len(paths)

    def export(self, path) -> None:
        """Write every span as one JSON document."""
        keys = ("id", "parent", "name", "start", "end", "op", "pid", "counts")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [dict(zip(keys, span)) for span in self.spans]}))


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict:
    """Span id → its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - union_length(children.get(span[0], ()), span[3], span[4])
        for span in spans
    }
