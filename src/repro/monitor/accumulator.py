"""Incremental Welch PSD accumulation over a stream of sample blocks.

The batch measurement stack renders a full acquisition and hands the whole
record to :func:`repro.dsp.welch_psd`.  A continuously monitored transmitter
never *has* the whole record — samples arrive block by block for hours — so
:class:`StreamingAccumulator` maintains the Welch state incrementally: each
ingested block is appended to a bounded carry-over buffer, every complete
segment in the buffer is periodogrammed at once — one
:func:`~repro.dsp.spectrum.periodogram_rows` call, the batch estimator's own
helper, over a strided view — and accumulated in segment order exactly as
the batch estimator would, and the buffer retains only the overlap / tail
samples the next segment needs.

The contract is *bit-identity*: at any point, :meth:`spectrum` equals
``welch_psd`` of the concatenated samples ingested so far (restricted to the
complete segments both see), and after :meth:`finalize` the equivalence is
exact for the full record — including the batch estimator's clamp-to-record
fallback for records shorter than one segment.  Identity holds for *every*
partition of the stream into blocks (single samples, uneven chunks, whole
record at once), which is what the metamorphic test suite asserts.

Memory is bounded by ``segment_length + max_block`` samples regardless of
stream length, which is what makes the hours-of-traffic workload viable.
Periodogramming a block adds temporaries of its complete segments: about
``max_block / step`` rows of ``segment_length`` samples (63 rows of 256 for
8,192-sample blocks at 50 % overlap).
"""

from __future__ import annotations

import numpy as np

from ..dsp.spectrum import SpectrumEstimate, periodogram_rows, welch_psd
from ..errors import MeasurementError, ValidationError
from ..utils.validation import check_integer, check_positive
from ..utils.windows import hann_window

__all__ = ["StreamingAccumulator"]


class StreamingAccumulator:
    """Accumulate a Welch PSD estimate from fixed- or variable-size blocks.

    Parameters
    ----------
    sample_rate:
        Sample rate of the ingested stream (Hz).
    segment_length:
        Welch segment length (same meaning as :func:`repro.dsp.welch_psd`:
        Hann-tapered segments at 50 % overlap).

    Notes
    -----
    The first ingested block pins the stream's domain (real or complex);
    mixing domains raises :class:`~repro.errors.ValidationError`.  Each
    block's complete segments are periodogrammed in one batched FFT and
    summed in stream order, the same order as the batch estimator, so the
    accumulated PSD is bit-identical, not merely close.
    """

    def __init__(self, sample_rate: float, segment_length: int = 1024) -> None:
        self._sample_rate = check_positive(sample_rate, "sample_rate")
        self._segment_length = check_integer(segment_length, "segment_length", minimum=8)
        self._taper = hann_window(self._segment_length)
        self._step = int(round(self._segment_length * 0.5))
        self._buffer: np.ndarray | None = None
        self._accumulated: np.ndarray | None = None
        self._frequencies: np.ndarray | None = None
        self._two_sided: bool | None = None
        self._segments = 0
        self._ingested = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def sample_rate(self) -> float:
        """Stream sample rate (Hz)."""
        return self._sample_rate

    @property
    def segment_length(self) -> int:
        """Welch segment length in samples."""
        return self._segment_length

    @property
    def samples_ingested(self) -> int:
        """Total samples ingested so far."""
        return self._ingested

    @property
    def segments_accumulated(self) -> int:
        """Complete segments periodogrammed and accumulated so far."""
        return self._segments

    @property
    def pending_samples(self) -> int:
        """Carry-over samples retained for the next segment.

        This is the streaming ledger of the batch estimator's "silently
        dropped tail": exactly the samples after the last accumulated
        segment's start (overlap plus unfilled tail).  They are not lost —
        the next blocks complete them into further segments — but a
        :meth:`spectrum` snapshot taken now has not seen them.
        """
        return 0 if self._buffer is None else int(self._buffer.size)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, block) -> int:
        """Append one block of samples; returns segments newly accumulated."""
        block = np.atleast_1d(np.asarray(block))
        if block.ndim != 1:
            raise ValidationError(f"blocks must be one-dimensional, got shape {block.shape}")
        if block.size == 0:
            return 0
        target = complex if np.iscomplexobj(block) else float
        if self._buffer is None:
            self._buffer = block.astype(target, copy=True)
        else:
            have_complex = np.iscomplexobj(self._buffer)
            if have_complex != (target is complex):
                raise ValidationError(
                    "all blocks of a stream must share one domain (real or complex); "
                    f"got a {'complex' if target is complex else 'real'} block after "
                    f"{'complex' if have_complex else 'real'} ones"
                )
            self._buffer = np.concatenate([self._buffer, block.astype(target, copy=False)])
        self._ingested += int(block.size)

        if self._buffer.size < self._segment_length:
            return 0
        segments = np.lib.stride_tricks.sliding_window_view(
            self._buffer, self._segment_length
        )[:: self._step]
        frequencies, rows, two_sided = periodogram_rows(segments, self._sample_rate, self._taper)
        if self._accumulated is None:
            self._accumulated = rows[0].copy()
            self._frequencies = frequencies
            self._two_sided = two_sided
            rows = rows[1:]
        for row in rows:
            self._accumulated += row
        added = len(segments)
        self._segments += added
        self._buffer = self._buffer[added * self._step :]
        return added

    def extend(self, blocks) -> int:
        """Ingest an iterable of blocks; returns segments newly accumulated."""
        return sum(self.ingest(block) for block in blocks)

    # ------------------------------------------------------------------ #
    # Estimates
    # ------------------------------------------------------------------ #
    def spectrum(self) -> SpectrumEstimate:
        """Snapshot of the accumulated Welch estimate.

        Bit-identical to ``welch_psd`` of the ingested samples truncated to
        the segments accumulated so far.  Raises
        :class:`~repro.errors.MeasurementError` before the first complete
        segment.
        """
        if self._accumulated is None:
            raise MeasurementError(
                f"no complete Welch segment yet: {self._ingested} sample(s) ingested, "
                f"{self._segment_length} needed per segment"
            )
        return SpectrumEstimate(
            self._frequencies,
            self._accumulated / self._segments,
            self._sample_rate / self._segment_length,
            two_sided=bool(self._two_sided),
        )

    def finalize(self) -> SpectrumEstimate:
        """End-of-stream estimate, exactly equal to the batch estimator.

        For streams of at least one segment this is :meth:`spectrum` (the
        batch estimator drops the same tail the carry-over buffer still
        holds).  For streams *shorter* than one segment it reproduces the
        batch clamp-to-record fallback — including its
        :class:`~repro.errors.MeasurementWarning` — by running ``welch_psd``
        on the retained buffer, which at that point is the entire stream.
        """
        if self._accumulated is not None:
            return self.spectrum()
        if self._buffer is None or self._buffer.size < 8:
            raise MeasurementError(
                "stream too short for any spectral estimate "
                f"({self._ingested} sample(s) ingested)"
            )
        return welch_psd(self._buffer, self._sample_rate, segment_length=self._segment_length)
