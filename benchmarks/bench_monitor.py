"""Extension experiment: streaming-monitor bit-identity and ingest throughput.

The streaming layer exists so hours of traffic can be monitored in bounded
memory; that is only worth having if (a) the incremental Welch state is
*exactly* the batch estimator — not approximately — and (b) ingest keeps up
with realistic block rates.  This benchmark measures and hard-gates both:

* **bit-identity** — the accumulated streamed PSD equals batch
  :func:`~repro.dsp.welch_psd` byte for byte over randomised block
  partitions, and batch ``welch_psd`` (which periodograms every segment
  in one batched FFT) equals an explicit one-``periodogram``-per-segment
  loop on a complex and a real stream (always asserted, smoke or not);
* **ingest throughput** — samples/second through the bare
  :class:`~repro.monitor.StreamingAccumulator` and through the full
  :class:`~repro.monitor.StreamingMonitor` (windowed metrics + drift
  charts).  The accumulator floor is armed in both modes; the full-monitor
  number is reported for trajectory tracking.

Run with:  PYTHONPATH=../src python bench_monitor.py [--smoke]
``--output bench.json`` writes the numbers as JSON.
"""

import argparse
import json
import time

import numpy as np

from repro.dsp import periodogram, welch_psd
from repro.monitor import (
    ChannelSpec,
    DriftDetectorConfig,
    MonitorConfig,
    StreamingAccumulator,
    StreamingMonitor,
    iter_blocks,
)

RATE = 10.0e6
SEGMENT_LENGTH = 256
WINDOW_SAMPLES = 2048
#: Armed gate: the bare accumulator must ingest at least this many
#: samples per second (conservative floor, ~50x below a typical host).
MIN_ACCUMULATOR_THROUGHPUT = 1.0e5


def make_stream(num_samples: int, seed: int = 2014) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / RATE
    tone = np.exp(2j * np.pi * 1.0e6 * t)
    noise = 0.05 * (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples))
    return tone + noise


def random_blocks(stream: np.ndarray, seed: int, max_block: int = 4096):
    rng = np.random.default_rng(seed)
    start = 0
    while start < stream.size:
        size = int(rng.integers(1, max_block + 1))
        yield stream[start : start + size]
        start += size


def check_bit_identity(stream: np.ndarray, partitions: int) -> int:
    """Assert streamed == batch over ``partitions`` random block partitions."""
    batch = welch_psd(stream, RATE, segment_length=SEGMENT_LENGTH)
    for seed in range(partitions):
        accumulator = StreamingAccumulator(RATE, segment_length=SEGMENT_LENGTH)
        accumulator.extend(random_blocks(stream, seed=seed))
        streamed = accumulator.finalize()
        assert np.array_equal(streamed.psd, batch.psd), f"partition seed {seed} differs"
        assert np.array_equal(streamed.frequencies_hz, batch.frequencies_hz)
    return partitions


def check_segment_definition(stream: np.ndarray) -> None:
    """Assert batch ``welch_psd`` == one ``periodogram`` per segment, summed in order."""
    step = SEGMENT_LENGTH // 2  # welch_psd's default 50 % overlap
    for domain, record in (("complex", stream), ("real", stream.real)):
        batch = welch_psd(record, RATE, segment_length=SEGMENT_LENGTH)
        starts = range(0, record.size - SEGMENT_LENGTH + 1, step)
        total = periodogram(record[:SEGMENT_LENGTH], RATE).psd.copy()
        for start in starts[1:]:
            total += periodogram(record[start : start + SEGMENT_LENGTH], RATE).psd
        assert np.array_equal(batch.psd, total / len(starts)), (
            f"batched welch_psd differs from the per-segment loop on the {domain} stream"
        )


def time_accumulator(stream: np.ndarray, block_samples: int) -> float:
    accumulator = StreamingAccumulator(RATE, segment_length=SEGMENT_LENGTH)
    start = time.perf_counter()
    accumulator.extend(iter_blocks(stream, block_samples))
    elapsed = time.perf_counter() - start
    return stream.size / elapsed


def time_monitor(stream: np.ndarray, block_samples: int) -> tuple[float, dict]:
    config = MonitorConfig(
        sample_rate=RATE,
        window_samples=WINDOW_SAMPLES,
        segment_length=SEGMENT_LENGTH,
        channel=ChannelSpec(centre_hz=0.0, bandwidth_hz=2.0e6),
        detector=DriftDetectorConfig(warmup_windows=5),
    )
    monitor = StreamingMonitor(config)
    start = time.perf_counter()
    monitor.ingest_stream(iter_blocks(stream, block_samples))
    elapsed = time.perf_counter() - start
    return stream.size / elapsed, monitor.report().summary()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument("--block-samples", type=int, default=1500)
    parser.add_argument("--output", default=None, help="write the numbers as JSON")
    args = parser.parse_args()

    num_samples = 200_000 if args.smoke else 2_000_000
    identity_partitions = 3 if args.smoke else 10
    stream = make_stream(num_samples)

    checked = check_bit_identity(stream[: min(num_samples, 100_000)], identity_partitions)
    print(f"bit-identity: {checked} random block partitions == batch welch_psd")
    check_segment_definition(stream[: min(num_samples, 100_000)])
    print("bit-identity: batch welch_psd == per-segment periodogram loop (complex, real)")

    accumulator_rate = time_accumulator(stream, args.block_samples)
    monitor_rate, summary = time_monitor(stream, args.block_samples)
    print(f"accumulator ingest: {accumulator_rate / 1e6:.2f} Msamples/s")
    print(f"full monitor ingest: {monitor_rate / 1e6:.2f} Msamples/s "
          f"({summary['windows']} windows, {summary['alarms']} alarms)")

    assert summary["alarms"] == 0, "stationary stream must not alarm"
    assert accumulator_rate >= MIN_ACCUMULATOR_THROUGHPUT, (
        f"accumulator ingest {accumulator_rate:.0f} samples/s below the "
        f"{MIN_ACCUMULATOR_THROUGHPUT:.0f} floor"
    )

    payload = {
        "smoke": bool(args.smoke),
        "num_samples": int(num_samples),
        "block_samples": int(args.block_samples),
        "bit_identity_partitions": int(checked),
        "accumulator_samples_per_second": float(accumulator_rate),
        "monitor_samples_per_second": float(monitor_rate),
        "monitor_summary": summary,
        "throughput_floor": MIN_ACCUMULATOR_THROUGHPUT,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    print("bench_monitor: all gates passed")


if __name__ == "__main__":
    main()
