"""Extension experiment: adaptive threshold search vs the exhaustive grid.

The adaptive planner claims ``O(log2(grid))`` probes per fault family
where the exhaustive campaign pays ``O(grid)``; this benchmark measures
that saving and guards the statistical machinery:

* synthetic fleet (analytic detection curves, no BIST cost): the
  aggregate ``scenarios_saved_vs_grid`` on a 32-step grid — **asserted
  >= 5x**, the headline efficiency target;
* real execution path: a coarse-grid search over six fault families
  through genuine BIST scenarios, wall clock and per-family thresholds
  (the DCDE control must report "no threshold found").

Run with:  PYTHONPATH=../src python bench_adaptive.py [--smoke]
``--output bench.json`` writes the efficiency numbers as JSON.
"""

import argparse
import json
import os
import time

from repro.bist import BistConfig
from repro.faults import (
    AdaptiveConfig,
    AdaptivePlanner,
    CampaignProbeBackend,
    SyntheticFamily,
    SyntheticProbeBackend,
    TestLimits,
)

REAL_FAMILIES = [
    "pa-compression",
    "iq-imbalance",
    "lo-leakage",
    "tiadc-skew",
    "filter-drift",
    "dcde-error",
]

#: Same explicit-bounds screen as examples/adaptive_thresholds.py (the BIST
#: verdict is noise-marginal at benchmark acquisition sizes).
LIMITS = TestLimits(
    use_bist_verdict=False,
    max_acpr_db=-35.0,
    max_occupied_bandwidth_hz=15.0e6,
    max_skew_deviation_ps=20.0,
)

SYNTHETIC_FAMILIES = [
    SyntheticFamily("sharp-a", threshold=0.13, steepness=400.0),
    SyntheticFamily("sharp-b", threshold=0.28, steepness=400.0),
    SyntheticFamily("sharp-c", threshold=0.47, steepness=400.0),
    SyntheticFamily("sharp-d", threshold=0.66, steepness=400.0),
    SyntheticFamily("sharp-e", threshold=0.84, steepness=400.0),
]


def synthetic_stage() -> dict:
    config = AdaptiveConfig(num_steps=32)
    backend = SyntheticProbeBackend(SYNTHETIC_FAMILIES, seed=0)
    start = time.perf_counter()
    report = AdaptivePlanner(backend, config).run(
        [family.name for family in SYNTHETIC_FAMILIES]
    ).report
    seconds = time.perf_counter() - start
    return {
        "num_steps": config.num_steps,
        "scenarios_spent": report.scenarios_spent,
        "grid_equivalent_scenarios": report.grid_equivalent_scenarios,
        "scenarios_saved_vs_grid": report.scenarios_saved_vs_grid,
        "seconds": seconds,
    }


def real_stage(smoke: bool, workers: int) -> dict:
    if smoke:
        engine = BistConfig(
            num_samples_fast=192,
            num_samples_slow=96,
            lms_max_iterations=20,
            num_cost_points=40,
            measure_evm_enabled=False,
            seed=99,
        )
        config = AdaptiveConfig(num_steps=4, repeats_per_round=2, max_rounds_per_probe=1)
    else:
        engine = BistConfig(
            num_samples_fast=256,
            num_samples_slow=128,
            lms_max_iterations=40,
            num_cost_points=120,
            measure_evm_enabled=False,
            seed=99,
        )
        config = AdaptiveConfig(num_steps=32, repeats_per_round=2, max_rounds_per_probe=1)
    backend = CampaignProbeBackend(
        ["paper-qpsk-1ghz"],
        bist_config=engine,
        limits=LIMITS,
        max_workers=workers,
    )
    start = time.perf_counter()
    result = AdaptivePlanner(backend, config).run(REAL_FAMILIES)
    seconds = time.perf_counter() - start
    report = result.report
    grid_cost = len(REAL_FAMILIES) * config.num_steps * config.repeats_per_round
    return {
        "num_steps": config.num_steps,
        "scenarios_spent": report.scenarios_spent,
        "exhaustive_grid_scenarios": grid_cost,
        "scenarios_saved_vs_grid": report.scenarios_saved_vs_grid,
        "seconds": seconds,
        "num_errors": result.summary().num_errors,
        "thresholds": {
            threshold.family: (threshold.threshold if threshold.found else None)
            for threshold in report.thresholds
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="minimal sizes for CI")
    parser.add_argument("--output", type=str, default=None, help="write timing JSON here")
    parser.add_argument(
        "--workers",
        type=int,
        default=min(4, max(2, os.cpu_count() or 1)),
        help="pool size for the real-backend stage",
    )
    args = parser.parse_args()

    synthetic = synthetic_stage()
    real = real_stage(args.smoke, args.workers)

    title = "Extension - adaptive threshold search vs exhaustive grid (AdaptivePlanner)"
    print("=" * len(title))
    print(title)
    print("=" * len(title))
    print(
        f"synthetic ({synthetic['num_steps']}-step grid, {len(SYNTHETIC_FAMILIES)} families): "
        f"{synthetic['scenarios_spent']} scenarios vs "
        f"{synthetic['grid_equivalent_scenarios']:.0f} grid-equivalent "
        f"= {synthetic['scenarios_saved_vs_grid']:.1f}x saved"
    )
    print(
        f"real BIST ({real['num_steps']}-step grid, {len(REAL_FAMILIES)} families): "
        f"{real['scenarios_spent']} scenarios vs {real['exhaustive_grid_scenarios']} "
        f"exhaustive = {real['scenarios_saved_vs_grid']:.1f}x saved "
        f"({real['seconds']:.1f} s, {args.workers} worker(s))"
    )
    for family, threshold in real["thresholds"].items():
        print(f"  {family:<16} {'none' if threshold is None else f'{threshold:.4f}'}")

    # --- Expected behaviour --------------------------------------------------
    # The headline efficiency target: >= 5x fewer scenarios than the grid.
    assert synthetic["scenarios_saved_vs_grid"] >= 5.0, synthetic
    # The adaptive search must beat the exhaustive grid on the real path too.
    assert real["scenarios_spent"] < real["exhaustive_grid_scenarios"], real
    assert real["num_errors"] == 0
    # The DCDE control is absorbed by the LMS calibration by design.
    assert real["thresholds"]["dcde-error"] is None, real["thresholds"]

    if args.output:
        payload = {
            "smoke": args.smoke,
            "workers": args.workers,
            "synthetic": synthetic,
            "real": real,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nbenchmark JSON written to {args.output}")


if __name__ == "__main__":
    main()
