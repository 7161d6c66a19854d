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
* **windowed EVM** — a ``paper-qpsk-1ghz`` burst monitored with its
  symbol reference: every window's EVM (read through the session's
  :class:`~repro.monitor.SymbolKernelTable`) agrees within 1e-9 relative
  with the per-window route it replaced (matched filter over the window,
  then :func:`~repro.dsp.sinc_interpolate` at each symbol instant), and two
  block partitions give bit-identical reports (always asserted);
* **ingest throughput** — samples/second through the bare
  :class:`~repro.monitor.StreamingAccumulator`, through the full
  :class:`~repro.monitor.StreamingMonitor` (windowed metrics + drift
  charts) and through the EVM session.  The accumulator floor is armed in
  both modes; the monitor numbers are reported for trajectory tracking.

Run with:  PYTHONPATH=../src python bench_monitor.py [--smoke]
``--output bench.json`` writes the numbers as JSON.
"""

import argparse
import json
import time

import numpy as np

from repro.dsp import error_vector_magnitude, periodogram, sinc_interpolate, welch_psd
from repro.monitor import (
    ChannelSpec,
    DriftDetectorConfig,
    MonitorConfig,
    StreamingAccumulator,
    StreamingMonitor,
    SymbolReference,
    iter_blocks,
)
from repro.signals.standards import get_profile
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

RATE = 10.0e6
SEGMENT_LENGTH = 256
WINDOW_SAMPLES = 2048
INTERPOLATION_TAPS = 32
#: Relative agreement of each window's EVM with the per-window route.
EVM_TOLERANCE = 1e-9
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


def oracle_window_evm(samples, sample_rate, window_start_time, reference, min_symbols):
    """Window EVM by the per-window route: matched filter, then ``sinc_interpolate``."""
    taps = reference.pulse_taps
    matched = np.convolve(samples, np.conj(taps[::-1].astype(complex)))
    matched = matched[taps.size // 2 : taps.size // 2 + samples.size]
    margin = ((taps.size - 1) // 2 + INTERPOLATION_TAPS) / sample_rate
    usable_low = window_start_time + margin
    usable_high = window_start_time + (samples.size - 1) / sample_rate - margin
    symbol_period = 1.0 / reference.symbol_rate_hz
    first = max(int(np.ceil((usable_low - reference.start_time) / symbol_period)), 0)
    last = min(
        int(np.floor((usable_high - reference.start_time) / symbol_period)),
        reference.symbols.size - 1,
    )
    if usable_high <= usable_low or last - first + 1 < min_symbols:
        return None
    indices = np.arange(first, last + 1)
    received = sinc_interpolate(
        matched,
        sample_rate,
        reference.start_time + indices * symbol_period,
        start_time=window_start_time,
        num_taps=INTERPOLATION_TAPS,
    )
    sent = reference.symbols[indices]
    gain = np.vdot(received, sent) / np.vdot(received, received)
    return error_vector_magnitude(sent, received * gain, as_percent=True)


def check_evm_session(num_symbols: int, block_samples: int) -> tuple[float, int]:
    """Monitor a burst with EVM; assert oracle agreement and partition bit-identity.

    Returns the session's samples/second (monitor construction, which
    builds the kernel table, through the last ingest) and its window count.
    """
    config = TransmitterConfig.from_profile(get_profile("paper-qpsk-1ghz"), seed=2014)
    burst = HomodyneTransmitter(config).transmit(num_symbols=num_symbols)
    samples = burst.output_envelope.samples

    def session(blocks):
        start = time.perf_counter()
        monitor = StreamingMonitor.from_transmission(
            burst, window_samples=WINDOW_SAMPLES, segment_length=SEGMENT_LENGTH
        )
        monitor.ingest_stream(blocks)
        return time.perf_counter() - start, monitor.report()

    elapsed, report = session(iter_blocks(samples, block_samples))
    _, repartitioned = session(random_blocks(samples, seed=7))
    assert report.to_dict() == repartitioned.to_dict(), "EVM session differs under another partition"

    reference = SymbolReference.from_transmission(burst)
    monitor_config = report.config
    for window in report.windows:
        window_samples = samples[window.start_sample : window.start_sample + window.num_samples]
        expected = oracle_window_evm(
            window_samples,
            monitor_config.sample_rate,
            monitor_config.start_time + window.start_sample / monitor_config.sample_rate,
            reference,
            monitor_config.min_evm_symbols,
        )
        assert (window.evm_percent is None) == (expected is None), f"window {window.index}"
        if expected is not None:
            assert abs(window.evm_percent - expected) <= EVM_TOLERANCE * expected, (
                f"window {window.index}: EVM {window.evm_percent!r} vs per-window route {expected!r}"
            )
    assert any(window.evm_percent is not None for window in report.windows)
    return samples.size / elapsed, report.num_windows


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

    evm_rate, evm_windows = check_evm_session(4096 if args.smoke else 32768, args.block_samples)
    print(f"windowed EVM: {evm_windows} windows within {EVM_TOLERANCE:g} of the per-window "
          "route; two block partitions bit-identical")

    accumulator_rate = time_accumulator(stream, args.block_samples)
    monitor_rate, summary = time_monitor(stream, args.block_samples)
    print(f"accumulator ingest: {accumulator_rate / 1e6:.2f} Msamples/s")
    print(f"full monitor ingest: {monitor_rate / 1e6:.2f} Msamples/s "
          f"({summary['windows']} windows, {summary['alarms']} alarms)")
    print(f"EVM monitor session: {evm_rate / 1e6:.2f} Msamples/s ({evm_windows} windows)")

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
        "evm_session_samples_per_second": float(evm_rate),
        "evm_session_windows": int(evm_windows),
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
