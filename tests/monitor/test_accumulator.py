"""Metamorphic tests: streaming Welch accumulation is bit-identical to batch.

The central claim of :class:`repro.monitor.StreamingAccumulator` is not
"close": it is *equality* with :func:`repro.dsp.welch_psd` for every
partition of the record into blocks.  These tests assert `np.array_equal`
(no tolerance) over randomised seeded block partitions, both domains, and
several segment lengths — plus the tail-accounting
ledger and the short-record clamp fallback.
"""

import numpy as np
import pytest

from repro.dsp import welch_psd
from repro.errors import MeasurementError, MeasurementWarning, ValidationError
from repro.monitor import StreamingAccumulator

RATE = 1.0e6


def random_record(size: int, seed: int, complex_domain: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if complex_domain:
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return rng.standard_normal(size)


def random_partition(record: np.ndarray, seed: int, max_block: int = 700):
    """Split a record into random-size consecutive blocks (seeded)."""
    rng = np.random.default_rng(seed)
    start = 0
    while start < record.size:
        size = int(rng.integers(1, max_block + 1))
        yield record[start : start + size]
        start += size


class TestBitIdentity:
    @pytest.mark.parametrize("complex_domain", [False, True])
    @pytest.mark.parametrize("segment_length", [64, 128, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_block_partitions_equal_batch(self, complex_domain, segment_length, seed):
        record = random_record(5000, seed=100 + seed, complex_domain=complex_domain)
        accumulator = StreamingAccumulator(RATE, segment_length=segment_length)
        accumulator.extend(random_partition(record, seed=seed))
        streamed = accumulator.finalize()
        batch = welch_psd(record, RATE, segment_length=segment_length)
        assert np.array_equal(streamed.psd, batch.psd)
        assert np.array_equal(streamed.frequencies_hz, batch.frequencies_hz)
        assert streamed.resolution_hz == batch.resolution_hz
        assert streamed.two_sided == batch.two_sided

    def test_single_sample_blocks_equal_whole_record(self):
        record = random_record(1200, seed=7, complex_domain=True)
        one_shot = StreamingAccumulator(RATE, segment_length=128)
        one_shot.ingest(record)
        dribbled = StreamingAccumulator(RATE, segment_length=128)
        dribbled.extend(record[i : i + 1] for i in range(record.size))
        assert np.array_equal(one_shot.spectrum().psd, dribbled.spectrum().psd)

    def test_snapshot_matches_batch_of_covered_prefix(self):
        # A mid-stream spectrum() equals batch over the samples covered by
        # the segments accumulated so far.
        record = random_record(1000, seed=3, complex_domain=False)
        accumulator = StreamingAccumulator(RATE, segment_length=256)
        accumulator.ingest(record)
        covered = (accumulator.segments_accumulated - 1) * 128 + 256  # half-segment step
        batch = welch_psd(record[:covered], RATE, segment_length=256)
        assert np.array_equal(accumulator.spectrum().psd, batch.psd)

    @pytest.mark.parametrize("segment_length", [100, 101])
    def test_non_dyadic_segment(self, segment_length):
        # An odd length makes the half-segment step round (101 / 2 -> 50).
        record = random_record(3000, seed=11, complex_domain=True)
        accumulator = StreamingAccumulator(RATE, segment_length=segment_length)
        accumulator.extend(random_partition(record, seed=11, max_block=137))
        batch = welch_psd(record, RATE, segment_length=segment_length)
        assert np.array_equal(accumulator.finalize().psd, batch.psd)


class TestTailAccounting:
    def test_counters_track_segments_and_pending(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        accumulator.ingest(np.zeros(100))
        # one segment (64), buffer keeps 100 - 32 = 68 ≥ 64 → second segment,
        # buffer keeps 36 < 64.
        assert accumulator.segments_accumulated == 2
        assert accumulator.pending_samples == 36
        assert accumulator.samples_ingested == 100

    def test_pending_before_first_segment_is_everything(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        accumulator.ingest(np.zeros(10))
        assert accumulator.segments_accumulated == 0
        assert accumulator.pending_samples == 10


class TestClampFallback:
    def test_short_stream_finalize_matches_batch_including_warning(self):
        record = random_record(50, seed=9, complex_domain=True)
        accumulator = StreamingAccumulator(RATE, segment_length=256)
        accumulator.extend((record[:20], record[20:]))
        with pytest.warns(MeasurementWarning, match="clamp"):
            streamed = accumulator.finalize()
        with pytest.warns(MeasurementWarning, match="clamp"):
            batch = welch_psd(record, RATE, segment_length=256)
        assert np.array_equal(streamed.psd, batch.psd)
        assert np.array_equal(streamed.frequencies_hz, batch.frequencies_hz)

    def test_too_short_stream_raises(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        accumulator.ingest(np.zeros(4))
        with pytest.raises(MeasurementError, match="too short"):
            accumulator.finalize()

    def test_empty_stream_raises(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        with pytest.raises(MeasurementError):
            accumulator.finalize()


class TestValidation:
    def test_mixed_domains_rejected(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        accumulator.ingest(np.zeros(10))
        with pytest.raises(ValidationError, match="share one domain"):
            accumulator.ingest(np.zeros(10, dtype=complex))

    def test_two_dimensional_blocks_rejected(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        with pytest.raises(ValidationError, match="one-dimensional"):
            accumulator.ingest(np.zeros((4, 4)))

    def test_empty_block_is_a_no_op(self):
        accumulator = StreamingAccumulator(RATE, segment_length=64)
        assert accumulator.ingest(np.array([])) == 0
        assert accumulator.samples_ingested == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            StreamingAccumulator(0.0, segment_length=64)
        with pytest.raises(ValidationError):
            StreamingAccumulator(RATE, segment_length=4)
