"""Extension experiment: campaign-store throughput and cache speedup.

The store turns campaign execution into an incremental workload: only
scenarios whose content fingerprint is new actually run.  This benchmark
measures the layers that must stay cheap for that to pay off, and hard-gates
the correctness contract:

* fingerprinting throughput (runs once per scenario per campaign — must be
  negligible against a ~0.2 s+ BIST execution);
* JSONL put / load / merge throughput on archives with full PSD payloads,
  and bytes and put/load milliseconds per record;
* backward reading: the same records written in the layout of earlier
  library versions (spectrum arrays as JSON lists of floats) must load to
  reports equal to the current layout's (base64 float64 arrays);
* the end-to-end cache speedup: the same grid campaign cold (store empty)
  vs warm (all hits), asserting hit/miss counters and bit-identical reports
  between the cold run, the warm run and a store-free reference run.

Run with:  PYTHONPATH=../src python bench_store.py [--smoke]
``--output bench.json`` writes the timing numbers as JSON.
"""

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid, skew_sweep
from repro.bist.runner import CampaignExecution
from repro.store import SCHEMA_VERSION, CampaignStore, canonical_json, scenario_fingerprint
from repro.transmitter import ImpairmentConfig


def build_scenarios(smoke: bool):
    grid = (
        ScenarioGrid()
        .add_profiles("paper-qpsk-1ghz", "uhf-8psk-400mhz")
        .add_impairment("nominal", ImpairmentConfig())
        .add_converters(skew_sweep([0.0, 2e-12] if smoke else [0.0, 1e-12, 2e-12, 4e-12]))
        .build()
    )
    return grid


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


def bench_fingerprints(scenarios, config) -> dict:
    start = time.perf_counter()
    fingerprints = [scenario_fingerprint(s, bist_config=config) for s in scenarios]
    elapsed = time.perf_counter() - start
    assert len(set(fingerprints)) == len(scenarios), "scenario fingerprints must be unique"
    return {
        "num_scenarios": len(scenarios),
        "total_seconds": elapsed,
        "per_scenario_ms": 1e3 * elapsed / len(scenarios),
    }


def bench_store_io(execution: CampaignExecution, root: Path) -> tuple:
    store = CampaignStore(root / "io")
    outcomes = list(execution.outcomes)
    start = time.perf_counter()
    for index, outcome in enumerate(outcomes):
        store.put(f"fp-{index}", outcome)
    put_seconds = time.perf_counter() - start

    start = time.perf_counter()
    loaded = CampaignStore(root / "io").load()
    load_seconds = time.perf_counter() - start
    assert len(loaded) == len(outcomes)

    destination = CampaignStore(root / "merged")
    start = time.perf_counter()
    added = destination.merge(root / "io")
    merge_seconds = time.perf_counter() - start
    assert added == len(outcomes)

    shard_bytes = store.shard_path.stat().st_size
    stats = {
        "num_records": len(outcomes),
        "shard_bytes": shard_bytes,
        "bytes_per_record": shard_bytes / len(outcomes),
        "put_ms_per_record": 1e3 * put_seconds / len(outcomes),
        "load_ms_per_record": 1e3 * load_seconds / len(outcomes),
        "put_records_per_second": len(outcomes) / put_seconds,
        "load_records_per_second": len(outcomes) / load_seconds,
        "merge_records_per_second": len(outcomes) / merge_seconds,
    }
    return stats, loaded


def legacy_record_line(fingerprint: str, outcome) -> str:
    """A store line in the layout of earlier library versions.

    Those wrote the spectrum's frequency axis and PSD as JSON lists of
    floats; the current layout writes base64 of their float64 bytes.
    """
    data = outcome.to_dict()
    spectrum = outcome.report.measurements.spectrum
    data["report"]["measurements"]["spectrum"].update(
        frequencies_hz=spectrum.frequencies_hz.tolist(), psd=spectrum.psd.tolist()
    )
    record = {"fingerprint": fingerprint, "schema_version": SCHEMA_VERSION, "outcome": data}
    return canonical_json(record)


def bench_legacy_layout(execution: CampaignExecution, root: Path, current: dict) -> dict:
    """Load the records as an earlier library wrote them; gate them equal."""
    outcomes = list(execution.outcomes)
    legacy_root = root / "legacy"
    legacy_root.mkdir()
    shard = legacy_root / "legacy.jsonl"
    shard.write_text(
        "".join(
            legacy_record_line(f"fp-{index}", outcome) + "\n"
            for index, outcome in enumerate(outcomes)
        ),
        encoding="utf-8",
    )
    start = time.perf_counter()
    loaded = CampaignStore(legacy_root).load()
    load_seconds = time.perf_counter() - start

    def reports(index):
        return {fp: outcome.report.to_dict() for fp, outcome in sorted(index.items())}

    assert reports(loaded) == reports(current), (
        "records in the list layout must load to the same reports as the base64 layout"
    )
    return {
        "num_records": len(outcomes),
        "bytes_per_record": shard.stat().st_size / len(outcomes),
        "load_ms_per_record": 1e3 * load_seconds / len(outcomes),
    }


def bench_cache_speedup(scenarios, config, root: Path) -> tuple:
    reference = CampaignRunner(bist_config=config).run(scenarios)

    cold_store = CampaignStore(root / "cache")
    start = time.perf_counter()
    cold = CampaignRunner(bist_config=config, store=cold_store).run(scenarios)
    cold_seconds = time.perf_counter() - start
    assert cold.cache_hits == 0 and cold.cache_misses == len(scenarios)

    start = time.perf_counter()
    warm = CampaignRunner(bist_config=config, store=CampaignStore(root / "cache")).run(
        scenarios
    )
    warm_seconds = time.perf_counter() - start
    assert warm.cache_hits == len(scenarios) and warm.cache_misses == 0

    def dicts(execution):
        return [outcome.report.to_dict() for outcome in execution.outcomes]

    assert dicts(cold) == dicts(reference) == dicts(warm), (
        "store-served reports must be bit-identical to executed ones"
    )
    return (
        {
            "num_scenarios": len(scenarios),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds,
        },
        cold,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument("--output", default=None, help="write results JSON here")
    args = parser.parse_args()

    scenarios = build_scenarios(args.smoke)
    config = build_config(args.smoke)
    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        print(f"campaign store benchmark ({'smoke' if args.smoke else 'full'} mode)")
        print(f"  scenarios: {len(scenarios)}")

        fingerprints = bench_fingerprints(scenarios, config)
        print(f"  fingerprinting: {fingerprints['per_scenario_ms']:.2f} ms/scenario")

        cache, cold_execution = bench_cache_speedup(scenarios, config, root)
        print(
            f"  cold run: {cache['cold_seconds']:.2f} s, "
            f"warm run: {cache['warm_seconds']:.3f} s "
            f"-> cache speedup {cache['speedup']:.0f}x"
        )

        io_stats, loaded = bench_store_io(cold_execution, root)
        print(
            f"  store io: put {io_stats['put_records_per_second']:.0f} rec/s, "
            f"load {io_stats['load_records_per_second']:.0f} rec/s, "
            f"merge {io_stats['merge_records_per_second']:.0f} rec/s "
            f"({io_stats['shard_bytes'] / 1e6:.2f} MB shard)"
        )
        print(
            f"  per record: {io_stats['bytes_per_record'] / 1e3:.1f} kB, "
            f"put {io_stats['put_ms_per_record']:.2f} ms, "
            f"load {io_stats['load_ms_per_record']:.2f} ms"
        )

        legacy = bench_legacy_layout(cold_execution, root, loaded)
        print(
            f"  list layout of earlier versions: {legacy['bytes_per_record'] / 1e3:.1f} kB "
            f"and load {legacy['load_ms_per_record']:.2f} ms per record, "
            "reports equal to the base64 layout's"
        )

        results = {
            "mode": "smoke" if args.smoke else "full",
            "fingerprints": fingerprints,
            "cache": cache,
            "store_io": io_stats,
            "legacy_layout": legacy,
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(results, handle, indent=2)
            print(f"  results written to {args.output}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
