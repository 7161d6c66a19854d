"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-bist --seed 1 --seconds 25 --trace 0

Run from the repository root.  Builds the workload's inputs from the seed,
runs closed-loop ops for the given seconds, checks the outputs, prints a
human-readable report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Exits non-zero when an output check fails.

``--write-reference`` stores this run's output digests as the reference
later runs of the same seed are checked against.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of the runs (stores, worker span files, results, traces).
WORK_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("paper-bist", "fault-campaign", "drift-monitor")

#: ``(name, unit)`` of the end-to-end metrics, reported on every workload.
#: Set-up, throughput and latency are medians read against the host-speed
#: reference kernel (``hostspeed.py``); the raw wall-clock medians are
#: printed alongside.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)

#: Fresh-process set-ups measured per untraced run besides the run's own;
#: ``setup_s`` is the median of all of them.
SETUP_PROBES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's output digests as the reference for its seed",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Set-up figures of a fresh process building the same inputs."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-probe",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
        cwd=ROOT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_cycles(workload, tracer, seconds: float) -> None:
    """Closed loop for ``seconds``: odd cycles are traced in a traced run.

    A new cycle starts only while it is expected to end by half a cycle
    past the deadline, so long cycles do not overrun the measured period.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    last = 0.0
    while index < workload.max_cycles:
        now = time.perf_counter()
        if index >= workload.min_cycles and now + last / 2.0 >= deadline:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            workload.cycle(index, traced)
        finally:
            if traced:
                tracer.uninstall()
                tracer.collect_workers()
        last = time.perf_counter() - now
        index += 1


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    The host's CPUs drift in speed independently of each other, and the
    host-speed kernel only describes the CPU it ran on.  Pinned, it times
    the CPU every op runs on, including the fault campaign's forked worker
    (the coordinator idles in its poll meanwhile).  Done before NumPy is
    imported, so its BLAS sizes its thread pool to the one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)

    import hostspeed
    import measure
    import spans
    import workloads

    tracer = spans.Tracer(WORK_DIR / f"workers-{args.workload}") if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR, tracer)
    workload.build_inputs()
    setup = {"wall_s": time.perf_counter() - SCRIPT_START}
    if tracer is not None:
        tracer.uninstall()
    setup["reference_s"] = hostspeed.settled_kernel_seconds()
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    setups = [setup]
    if tracer is None:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_walls = [entry["wall_s"] for entry in setups]
    setup_samples = [
        hostspeed.normalised(entry["wall_s"], entry["reference_s"])
        for entry in setups
    ]

    try:
        workload.warm_up()
        run_cycles(workload, tracer, args.seconds)
    finally:
        workload.close()

    if args.write_reference:
        print(f"reference written to {workload.write_reference()}")
    problems = workload.check()
    attempted = len(workload.ops)
    failed = sum(not op.ok for op in workload.ops)

    print(f"== perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(measure.provenance(ROOT, WORK_DIR, args.seed)))
    print(f"ops: {attempted} attempted, {failed} failed")
    references = [op.reference_before for op in workload.ops]
    if references:
        print(f"timing reference kernel: {json.dumps(measure.timing_summary(references))}")
    for kind in sorted({op.kind for op in workload.ops}):
        if workload.walls(kind):
            print(f"timing {kind}: {json.dumps(measure.timing_summary(workload.walls(kind)))}")
            normalised = measure.timing_summary(workload.normalised(kind))
            print(f"timing {kind} (normalised): {json.dumps(normalised)}")
    print(f"timing setup: {json.dumps(measure.timing_summary(setup_walls))}")
    print(f"timing setup (normalised): {json.dumps(measure.timing_summary(setup_samples))}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": [
            [op.op_id, op.kind, op.traced, op.ok, op.wall, op.reference_before, op.reference]
            for op in workload.ops
        ],
        "setups": setups,
    }
    if tracer is None:
        named = [("setup_s", measure.median(setup_samples), "s")]
        named += workload.named_metrics()
        named.append(("peak_rss_mb", peak_rss_mb(), "MB"))
        for name, value, unit in named:
            print(f"{name:<26} {value!r:>22} {unit}")
        counts = workload.counts()
        untraced = [op for op in workload.ops if op.kind == workload.primary and op.ok]
        counts["minor_faults"] = measure.median(op.minor_faults for op in untraced)
        counts["sys_cpu_ms"] = 1e3 * measure.median(op.sys_seconds for op in untraced)
        print("counts per op " + json.dumps(counts))
        op_time = measure.median(workload.gated_times())
        values = {
            "setup_s": measure.median(setup_samples),
            "throughput_per_s": workload.items_per_op / op_time,
            "latency_s_p50": op_time,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        results.update(named={name: value for name, value, _ in named}, counts=counts)
    else:
        import layers

        tracer.collect_workers()
        values, unattributed = layers.per_layer(workload, tracer.spans)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS}
        for name, unit in layers.METRICS:
            print(f"{name:<30} {values[name]!r:>24} {unit}")
        print("unattributed ms per traced op " + json.dumps(unattributed))
        if tracer.missing:
            print("trace targets not found: " + ", ".join(tracer.missing))
        trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.export(trace_path)
        print(f"trace written to {trace_path}")
        results.update(unattributed_ms=unattributed, missing_targets=tracer.missing)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")
    results.update(metrics=metrics, problems=problems)
    results_path = WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
