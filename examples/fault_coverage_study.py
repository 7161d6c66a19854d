"""Fault-coverage study: can the loopback BIST actually screen faulty units?

This example exercises the fault-injection subsystem end to end:

* :func:`~repro.faults.models.fault_grid` expands fault families x
  severities into parametric fault models (transmitter side: PA
  compression, IQ imbalance, LO leakage, DAC degradation, filter drift;
  acquisition side: TIADC skew/mismatch, DCDE error);
* :class:`~repro.faults.injection.FaultCampaign` replicates every fault
  point under decorrelated measurement noise, adds a fault-free reference
  population and runs everything through the parallel campaign runner;
* :class:`~repro.faults.coverage.FaultDictionary` +
  :class:`~repro.faults.report.FaultCoverageReport` turn the outcomes into
  detection probabilities, fault coverage, the false-alarm (yield-loss)
  rate and the exact test-escape rate.

The printed ranking shows which physical defects the paper's architecture
catches, which are marginal, and which are structurally invisible (the DCDE
static error — absorbed by the LMS calibration — is the expected test hole).

Run with:  PYTHONPATH=src python examples/fault_coverage_study.py --workers 4
Use ``--fast`` for a quick smoke run and ``--output coverage.json`` to
archive the full report + dictionary as a JSON artifact.
"""

import argparse
import json
import os
import time

from repro.bist import BistConfig
from repro.faults import FaultCampaign, FaultCoverageReport, TestLimits, fault_grid

FAMILIES = [
    "pa-compression",
    "iq-imbalance",
    "lo-leakage",
    "dac-resolution",
    "filter-drift",
    "tiadc-skew",
    "tiadc-mismatch",
    "dcde-error",
]

#: The production screen: the BIST's own per-profile verdict plus an
#: explicit bound on the estimated-vs-programmed delay deviation (the only
#: DSP-visible trace of acquisition-side timing faults).
LIMITS = TestLimits(max_skew_deviation_ps=20.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="process-pool size (1 = serial; default: CPU count)",
    )
    parser.add_argument("--fast", action="store_true", help="small acquisitions for a smoke run")
    parser.add_argument("--output", type=str, default=None, help="write the JSON artifact here")
    args = parser.parse_args()

    if args.fast:
        # 256 fast samples is the smallest acquisition whose reconstructed
        # interval still covers the >= 16 symbols the EVM demodulator needs;
        # anything shorter silently skips EVM and blinds the modulator-fault
        # families (IQ imbalance, LO leakage, filter drift).
        config = BistConfig(
            num_samples_fast=256,
            num_samples_slow=128,
            lms_max_iterations=25,
            num_cost_points=80,
            measure_evm_enabled=True,
        )
        severities, num_repeats, num_reference = [0.5, 1.0], 2, 4
    else:
        config = BistConfig(
            num_samples_fast=320,
            num_samples_slow=160,
            num_cost_points=200,
            measure_evm_enabled=True,
        )
        severities, num_repeats, num_reference = [0.25, 0.5, 1.0], 4, 12

    campaign = FaultCampaign(
        ["paper-qpsk-1ghz"],
        fault_grid(FAMILIES, severities),
        bist_config=config,
        num_repeats=num_repeats,
        num_reference=num_reference,
    )
    print(
        f"fault campaign: {len(FAMILIES)} families x {len(severities)} severities, "
        f"{num_repeats} repeats + {num_reference} references = {len(campaign)} scenarios"
    )
    print(f"running with {args.workers} worker(s)...")
    start = time.perf_counter()
    result = campaign.run(
        max_workers=args.workers,
        progress_callback=lambda outcome: print(f"  done: {outcome.summary()}"),
    )
    wall = time.perf_counter() - start

    dictionary = result.dictionary()
    report = FaultCoverageReport.from_dictionary(dictionary, LIMITS)
    print()
    print(report.to_text())
    print()
    print(
        f"wall clock {wall:.1f} s for "
        f"{result.execution.total_duration_seconds:.1f} s of scenario work "
        f"({result.execution.total_duration_seconds / wall:.2f}x concurrency)"
    )
    for label, error in result.execution.errors:
        print(f"scenario {label!r} errored: {error}")

    if args.output:
        artifact = {
            "report": report.to_dict(),
            "dictionary": dictionary.to_dict(),
            "config": {
                "families": FAMILIES,
                "severities": severities,
                "num_repeats": num_repeats,
                "num_reference": num_reference,
                "workers": args.workers,
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle)
        print(f"coverage artifact written to {args.output}")


if __name__ == "__main__":
    main()
