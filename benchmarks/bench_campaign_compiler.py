"""Campaign-compiler benchmark: compiled vs pooled vs serial execution.

A homogeneous severity sweep (one profile, one fault axis) is the campaign
compiler's best case: every scenario shares acquisition geometry, so the
compiled path runs the sweep in-process, one scenario after another through
the runner's ordinary per-scenario path, with one shared reconstruction-plan
structure cache: each structure is built once per group instead of once per
scenario in every process-pool worker.  This benchmark measures the three
execution paths on the same scenario list and hard-gates the contract:

* every compiled report is **bit-identical** to its serial and pooled
  counterparts (``report.to_dict()`` equality, spectra included);
* on the full-size sweep (>= 32 scenarios) the compiled path is at least
  3x faster than the pool path;
* the compiler batches the whole sweep (group occupancy 1.0 — no scenario
  silently falls back to the pool).

Run with:  PYTHONPATH=../src python bench_campaign_compiler.py [--smoke]
``--output BENCH_compiler.json`` writes the timing numbers as JSON.
"""

import argparse
import json
import time

import numpy as np

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid, skew_sweep

#: Full-mode sweep size; the ISSUE's acceptance gate is defined at >= 32.
FULL_SCENARIOS = 32
SMOKE_SCENARIOS = 8
POOL_WORKERS = 2


def build_scenarios(smoke: bool):
    count = SMOKE_SCENARIOS if smoke else FULL_SCENARIOS
    return (
        ScenarioGrid()
        .add_profile("paper-qpsk-1ghz")
        .add_converters(skew_sweep(np.linspace(0.0, 4e-12, count)))
        .build()
    )


def build_config(smoke: bool) -> BistConfig:
    if smoke:
        return BistConfig(
            num_samples_fast=128,
            num_samples_slow=64,
            lms_max_iterations=25,
            num_cost_points=60,
            measure_evm_enabled=False,
        )
    return BistConfig(num_samples_fast=256, num_samples_slow=128, measure_evm_enabled=False)


def timed_run(scenarios, config, **run_kwargs):
    runner_kwargs = {
        key: run_kwargs.pop(key) for key in ("max_workers",) if key in run_kwargs
    }
    runner = CampaignRunner(bist_config=config, **runner_kwargs)
    start = time.perf_counter()
    execution = runner.run(scenarios, **run_kwargs)
    elapsed = time.perf_counter() - start
    assert all(outcome.ok for outcome in execution.outcomes), (
        "benchmark scenarios must all pass execution: "
        + "; ".join(outcome.error for outcome in execution.outcomes if not outcome.ok)
    )
    return elapsed, execution


def assert_bit_identical(reference, candidate, label: str) -> None:
    for a, b in zip(reference.outcomes, candidate.outcomes):
        assert a.label == b.label
        assert a.report.to_dict() == b.report.to_dict(), (
            f"{label}: report for scenario {a.label!r} diverged from the serial path"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument("--output", default="BENCH_compiler.json", help="results JSON path")
    args = parser.parse_args()

    scenarios = build_scenarios(args.smoke)
    config = build_config(args.smoke)
    print(f"campaign compiler benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  scenarios: {len(scenarios)} (homogeneous severity sweep)")

    serial_seconds, serial = timed_run(scenarios, config)
    print(f"  serial:   {serial_seconds:6.2f} s ({serial_seconds / len(scenarios):.3f} s/scenario)")

    pooled_seconds, pooled = timed_run(scenarios, config, max_workers=POOL_WORKERS)
    print(f"  pooled:   {pooled_seconds:6.2f} s ({POOL_WORKERS} workers, chunked submission)")

    compiled_seconds, compiled = timed_run(scenarios, config, compile=True)
    print(f"  compiled: {compiled_seconds:6.2f} s (shared structures)")

    # --- Correctness gates --------------------------------------------------
    assert_bit_identical(serial, pooled, "pooled")
    assert_bit_identical(serial, compiled, "compiled")
    print("  bit-identity: serial == pooled == compiled (reports compared exactly)")

    stats = compiled.compiler_stats.to_dict()
    occupancy = stats["scenarios_batched"] / len(scenarios)
    assert occupancy == 1.0, f"homogeneous sweep must batch fully, occupancy {occupancy:.2f}"

    speedup_vs_pool = pooled_seconds / compiled_seconds
    speedup_vs_serial = serial_seconds / compiled_seconds
    print(
        f"  speedup:  {speedup_vs_pool:.2f}x vs pooled, "
        f"{speedup_vs_serial:.2f}x vs serial "
        f"(group occupancy {occupancy:.0%}, "
        f"structure cache {stats['structure_cache']['hits']} hits / "
        f"{stats['structure_cache']['misses']} misses)"
    )
    if not args.smoke:
        assert speedup_vs_pool >= 3.0, (
            f"compiled path must be >= 3x faster than the pool on a "
            f">= {FULL_SCENARIOS}-scenario homogeneous sweep, got {speedup_vs_pool:.2f}x"
        )
    else:
        assert speedup_vs_pool >= 1.0, (
            f"compiled path slower than the pool in smoke mode ({speedup_vs_pool:.2f}x)"
        )

    results = {
        "mode": "smoke" if args.smoke else "full",
        "num_scenarios": len(scenarios),
        "pool_workers": POOL_WORKERS,
        "serial_seconds": serial_seconds,
        "pooled_seconds": pooled_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup_vs_pool": speedup_vs_pool,
        "speedup_vs_serial": speedup_vs_serial,
        "group_occupancy": occupancy,
        "bit_identical": True,
        "compiler_stats": stats,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
        print(f"  results written to {args.output}")


if __name__ == "__main__":
    main()
