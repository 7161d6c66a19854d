"""Practical reconstruction from second-order nonuniform samples.

Exact reconstruction (Eq. 1 of the paper) needs an infinite sum; the
practical reconstructor (Eq. 6) truncates it to ``nw + 1`` taps centred on
the evaluation instant and windows the truncated kernel (the paper uses 61
taps and a Kaiser window).  This module provides:

* :class:`NonuniformSampleSet` — the container for the two interleaved
  uniform sample sequences (``f(nT)`` and ``f(nT + D)``) plus their timing
  metadata;
* :class:`IdealNonuniformSampler` — samples any
  :class:`~repro.signals.passband.AnalogSignal` without converter
  impairments (the theory-level sampler used by unit tests and by the
  sensitivity analysis); the impaired hardware model lives in
  :mod:`repro.adc.tiadc`;
* :class:`ReconstructionPlan` — the precompiled evaluator of Eq. (6): for a
  fixed ``(sample_set, evaluation_times, num_taps, window)`` it computes the
  taper, the delay-independent kernel tables and the on-grid channel's
  contribution **once**, then evaluates the reconstruction for any assumed
  delay ``D_hat`` — including a batched
  :meth:`ReconstructionPlan.evaluate_many` that adds a leading delay axis
  (the inner loop of the Section IV skew calibration).  The Eq. (2) kernel
  tables are factored by angle addition along both of their axes: every
  kernel argument is a row offset plus a tap offset, so each table costs
  ``rows + taps`` sines and cosines; and the delayed channel's kernel at
  ``v + D`` is four delay-free tables per term times scalars of ``D``,
  over one shared ``v + D``, so a candidate delay costs one reciprocal
  table and one contraction.  The tables are built once per distinct
  kernel offset of the grid: a dense uniform render at rate ``fs`` has
  only as many as the numerator ``p`` of ``fs / B = p / q`` (plus one per
  half-sample tie), while random instants get one per point.  A dense
  render then evaluates as a polyphase filter bank: each group of rows
  that shares a window base is one matmul of its kernels against one
  strided window of the zero-padded record per grid period.  Random
  instants gather each point's tap window instead;
* :class:`PlanStructureCache` — shares the *sample-independent* half of a
  plan (tap windows, taper, kernel trigonometry — the expensive part)
  between plans whose acquisition geometry and evaluation grid coincide.
  Fingerprint-adjacent campaign scenarios (a severity sweep of one fault
  family) differ only in sample values, so the campaign compiler runs each
  scenario of a group with one cache and builds each structure once per
  group instead of once per scenario;
* :func:`evaluate_stacked` — evaluates many plans, one delay each, into one
  array; row ``i`` is ``plans[i].evaluate`` by construction.  No campaign
  path calls it any more (the benchmark still traces it by name);
* :class:`NonuniformReconstructor` — a thin façade over
  :class:`ReconstructionPlan` keeping the original arbitrary-times API: it
  binds one assumed delay ``D_hat`` and builds a plan for each time grid it
  is asked to evaluate (the assumed delay is deliberately decoupled from the
  true delay used during acquisition, because estimating that true delay is
  exactly the calibration problem of Section IV);
* :func:`reference_evaluate` — the direct, pre-plan evaluation of Eq. (6),
  kept verbatim as the numerical oracle for equivalence tests and the
  before/after benchmark baseline.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ReconstructionError, ValidationError
from ..signals.passband import AnalogSignal
from ..utils.validation import check_1d_array, check_integer, check_positive
from ..utils.windows import evaluate_taper
from .bandpass import BandpassBand
from .nonuniform import (
    DEFAULT_DELAY_TOLERANCE,
    KohlenbergKernel,
    band_order,
    check_delay,
    integer_band_positioning,
)

__all__ = [
    "NonuniformSampleSet",
    "IdealNonuniformSampler",
    "ReconstructionPlan",
    "PlanStructureCache",
    "NonuniformReconstructor",
    "evaluate_stacked",
    "reference_evaluate",
]


@dataclass(frozen=True)
class NonuniformSampleSet:
    """Two interleaved uniform sample sequences of one analog waveform.

    Attributes
    ----------
    on_grid:
        Samples taken at ``start_time + n * sample_period`` ("channel 0").
    delayed:
        Samples taken at ``start_time + n * sample_period + delay``
        ("channel 1").
    sample_period:
        Per-sequence sampling period ``T`` (seconds); the per-channel rate is
        ``1 / T`` and equals the reconstructable bandwidth ``B``.
    delay:
        The *true* inter-sequence delay ``D`` used during acquisition.  A
        real BIST does not know this value precisely — that is what the
        calibration estimates — but the simulation keeps it for reference
        and for computing estimation errors.
    start_time:
        Absolute time of ``on_grid[0]``.
    band:
        The bandpass support the acquisition was configured for.
    """

    on_grid: np.ndarray
    delayed: np.ndarray
    sample_period: float
    delay: float
    start_time: float
    band: BandpassBand

    def __post_init__(self) -> None:
        on_grid = check_1d_array(self.on_grid, "on_grid", dtype=float)
        delayed = check_1d_array(self.delayed, "delayed", dtype=float)
        if on_grid.size != delayed.size:
            raise ValidationError("on_grid and delayed must have the same number of samples")
        sample_period = check_positive(self.sample_period, "sample_period")
        delay = check_positive(self.delay, "delay")
        if not isinstance(self.band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        object.__setattr__(self, "on_grid", on_grid)
        object.__setattr__(self, "delayed", delayed)
        object.__setattr__(self, "sample_period", sample_period)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "start_time", float(self.start_time))

    def __len__(self) -> int:
        return int(self.on_grid.size)

    @property
    def sample_rate(self) -> float:
        """Per-channel sampling rate ``1 / T``."""
        return 1.0 / self.sample_period

    @property
    def duration(self) -> float:
        """Time spanned by the on-grid sequence."""
        return self.on_grid.size * self.sample_period

    @property
    def end_time(self) -> float:
        """Time just past the last on-grid sample."""
        return self.start_time + self.duration

    def on_grid_times(self) -> np.ndarray:
        """Sampling instants of the on-grid sequence."""
        return self.start_time + np.arange(self.on_grid.size) * self.sample_period

    def delayed_times(self) -> np.ndarray:
        """Sampling instants of the delayed sequence (uses the true delay)."""
        return self.on_grid_times() + self.delay

    def with_channels(self, on_grid, delayed) -> "NonuniformSampleSet":
        """Copy of this sample set with replaced channel data (same metadata)."""
        return replace(self, on_grid=np.asarray(on_grid, dtype=float), delayed=np.asarray(delayed, dtype=float))


@dataclass(frozen=True)
class IdealNonuniformSampler:
    """Impairment-free second-order nonuniform sampler.

    Samples an :class:`~repro.signals.passband.AnalogSignal` at the two
    interleaved time grids.  The per-channel rate is taken equal to the
    band's width ``B`` (``T = 1/B``), which is the operating point of the
    paper; a different rate can be requested explicitly to build the
    lower-rate acquisition (``B1 = B/2``) that the LMS cost function needs.

    Parameters
    ----------
    band:
        Bandpass support to acquire.
    delay:
        True inter-channel delay ``D`` applied at acquisition time.
    sample_rate:
        Per-channel rate; defaults to ``band.bandwidth``.
    """

    band: BandpassBand
    delay: float
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        delay = check_positive(self.delay, "delay")
        rate = self.band.bandwidth if self.sample_rate is None else check_positive(self.sample_rate, "sample_rate")
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "sample_rate", rate)

    @property
    def sample_period(self) -> float:
        """Per-channel sampling period ``T``."""
        return 1.0 / self.sample_rate

    def acquire(
        self,
        signal: AnalogSignal,
        num_samples: int,
        start_time: float = 0.0,
    ) -> NonuniformSampleSet:
        """Acquire ``num_samples`` pairs of nonuniform samples of ``signal``."""
        num_samples = check_integer(num_samples, "num_samples", minimum=2)
        grid = float(start_time) + np.arange(num_samples) * self.sample_period
        on_grid = signal.evaluate(grid)
        delayed = signal.evaluate(grid + self.delay)
        # The reconstructable bandwidth equals the per-channel rate.  When the
        # sampler runs below the configured band's width (the B1 = B/2
        # acquisition of the LMS scheme) the effective band stays centred on
        # the configured band — the signal must of course fit inside it.
        if np.isclose(self.sample_rate, self.band.bandwidth):
            effective_band = self.band
        else:
            effective_band = BandpassBand.from_centre(self.band.centre, self.sample_rate)
        return NonuniformSampleSet(
            on_grid=on_grid,
            delayed=delayed,
            sample_period=self.sample_period,
            delay=self.delay,
            start_time=float(start_time),
            band=effective_band,
        )


#: Upper bound on ``num_delays * num_times * num_taps`` elements materialised
#: at once by :meth:`ReconstructionPlan.evaluate_many`.  Larger batches are
#: processed in chunks along the delay axis: the ``1 / (v + D)`` block (and,
#: on a dense render, the kernels built from it) must stay cache-resident or
#: the batch becomes memory-bandwidth-bound.  On the 300-point, 61-tap cost
#: plans this is 16 delays a chunk.  A 128-candidate ``evaluate_many`` on one
#: cost plan took the same 12-17 ms at 4 to 64 delays a chunk, and 21-27 ms
#: in one chunk of 128 (2-CPU container).
_BATCH_ELEMENT_BUDGET = 300_000

#: Sinc arguments smaller than this are evaluated exactly (``np.sinc``, or
#: the Taylor series ``1 - (pi x)^2 / 6`` for the on-grid tables) instead of
#: as an angle-addition quotient, whose absolute error (~1e-16 / (pi x))
#: would otherwise grow as the argument shrinks.
_SINC_SERIES_THRESHOLD = 1.0e-6


def _sinc_from_parts(sin_pi_x, x):
    """``sinc(x) = sin(pi x) / (pi x)`` given ``sin(pi x)`` already computed.

    The numerator comes from an exact angle-addition expansion, so near the
    removable singularity the quotient is replaced by its Taylor series
    (accurate to ~1e-24 at the switch-over point).
    """
    denominator = np.pi * x
    small = np.abs(x) < _SINC_SERIES_THRESHOLD
    out = np.empty_like(denominator)
    np.divide(sin_pi_x, denominator, out=out, where=~small)
    if small.any():
        out[small] = 1.0 - denominator[small] ** 2 / 6.0
    return out


def _angle_tables(rate: float, row: np.ndarray, tap: np.ndarray):
    """``sin`` and ``cos`` of ``rate * (row[:, None] + tap)`` by angle addition.

    Every kernel argument of a structure is a row offset plus a tap offset,
    so each ``(rows, taps)`` table costs ``rows + taps`` sines and cosines
    and four products, instead of ``rows * taps`` of each.
    """
    row_angle = rate * row
    tap_angle = rate * tap
    sin_row = np.sin(row_angle)[:, None]
    cos_row = np.cos(row_angle)[:, None]
    sin_tap = np.sin(tap_angle)
    cos_tap = np.cos(tap_angle)
    sine = sin_row * cos_tap
    sine += cos_row * sin_tap
    cosine = cos_row * cos_tap
    cosine -= sin_row * sin_tap
    return sine, cosine


class _KernelTermCache:
    """Delay-independent tables of one Kohlenberg kernel term.

    Each of the two terms of Eq. (2) has the shape

        ``s_i(t; D) = scale * sinc(c_env * t)
                      * (cos(c_osc * t) - sin(c_osc * t) * cot(phi))``

    with ``phi = order * pi * B * D`` (the cancellation-free product form of
    :class:`KohlenbergKernel`, with the delay-dependent
    ``sin(. - phi) / sin(phi)`` quotient expanded by angle addition).
    Reconstruction evaluates the term at the two argument families ``-v``
    (on-grid channel) and ``v + D`` (delayed channel), where ``v = nT - t``
    is fixed by the plan structure.

    * On-grid: sinc is even and ``cos(c_osc v)``, ``-sin(c_osc v)`` are the
      cosine and sine at ``-v``, so the term is ``on_grid_cos + on_grid_sin
      * cot(phi)``.
    * Delayed: angle addition in ``D`` gives

          ``s_i(v + D) = sum_c factor_c(D) * delayed[c] / (v + D)``

      over four delay-free tables, ``delayed = scale / (pi c_env) *
      [sin_env cos_osc, sin_env sin_osc, cos_env cos_osc, cos_env sin_osc]``,
      and four scalars of ``D`` (:meth:`_PlanStructure.delay_factors`).
    """

    __slots__ = (
        "order",
        "scale",
        "c_osc",
        "c_env",
        "c_phi",
        "on_grid_cos",
        "on_grid_sin",
        "delayed",
    )

    def __init__(
        self,
        order: int,
        scale: float,
        oscillation_hz: float,
        envelope_hz: float,
        bandwidth: float,
        row: np.ndarray,
        tap: np.ndarray,
        v: np.ndarray,
    ) -> None:
        self.order = int(order)
        self.scale = float(scale)
        self.c_osc = np.pi * oscillation_hz
        self.c_env = float(envelope_hz)
        self.c_phi = self.order * np.pi * bandwidth
        sin_osc, cos_osc = _angle_tables(self.c_osc, row, tap)
        sin_env, cos_env = _angle_tables(np.pi * self.c_env, row, tap)
        scaled_envelope = self.scale * _sinc_from_parts(sin_env, self.c_env * v)
        self.on_grid_cos = scaled_envelope * cos_osc
        self.on_grid_sin = scaled_envelope * sin_osc
        sin_env *= self.scale / (np.pi * self.c_env)
        cos_env *= self.scale / (np.pi * self.c_env)
        # Four (rows, taps) tables, in the order of the delay factors.
        self.delayed = (
            sin_env * cos_osc,
            sin_env * sin_osc,
            cos_env * cos_osc,
            cos_env * sin_osc,
        )

    def exact(self, argument: np.ndarray, cot_phi: np.ndarray) -> np.ndarray:
        """The term at ``argument`` in product form (``np.sinc`` handles zero)."""
        oscillation = self.c_osc * argument
        return (
            self.scale
            * np.sinc(self.c_env * argument)
            * (np.cos(oscillation) - np.sin(oscillation) * cot_phi)
        )


def _kernel_rows(
    times: np.ndarray, centre: np.ndarray, start: float, period: float
) -> tuple[np.ndarray, np.ndarray, int, int] | None:
    """Group grid points whose Eq. (6) kernels coincide: ``(first, row_index, p, q)``.

    A point's kernel depends only on its offset from its centre sample.  A
    uniform grid whose step is ``q/p`` sample periods repeats its offsets
    every ``p`` points, so points ``r + k p`` share one kernel row.  The ratio
    is read from the grid alone and then verified:

    * in integers, ``centre[r + k p] - centre[r] - k q`` is 0, or +-1 where a
      point sits on a half-sample tie and rounding sent it to the other
      centre.  Rows are keyed by ``(i mod p, residual)``, so tie points get
      their own row rather than a window shifted by one sample;
    * in floats, every point's centre-tap argument equals its row's first
      point's to within a few ulp of the grid's largest time, the noise of
      computing it directly.

    The integer check proves that point ``i`` of row ``r`` is centred on
    ``centre[first[r]] + (i // p - first[r] // p) q``, so its window starts
    ``(i // p) q`` samples after a per-row base.  Rows are returned in
    ascending order of that base.

    Returns ``first`` (the index of each row's first point), ``row_index``
    (each point's row) and the step's ``p`` and ``q``, or ``None`` when a
    check fails, the step does not increase (``q <= 0``) or the rows would
    not be fewer than the points: random instants and arbitrary grids then
    get one row per point.
    """
    num_times = times.size
    if num_times < 2:
        return None
    ratio = (times[-1] - times[0]) / (num_times - 1) / period
    if not abs(ratio) < 2**32:  # rejects nan and inf, and keeps k*q inside int64
        return None
    step = Fraction(ratio).limit_denominator(num_times - 1)
    p, q = step.denominator, step.numerator
    if q <= 0:
        return None
    index = np.arange(num_times)
    phase = index % p
    residual = centre - centre[phase] - (index // p) * q
    if np.abs(residual).max() > 1:
        return None
    _, first, row_index = np.unique(3 * phase + residual, return_index=True, return_inverse=True)
    if first.size >= num_times:
        return None
    centre_argument = (start + centre * period) - times
    tolerance = 4.0 * np.spacing(np.abs(times).max() + abs(start))
    if np.abs(centre_argument - centre_argument[first][row_index]).max() > tolerance:
        return None
    order = np.argsort(centre[first] - (first // p) * q, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[row_index], p, q


class _PlanStructure:
    """Sample-independent half of a :class:`ReconstructionPlan`.

    Everything here depends only on the acquisition *geometry* (start time,
    period, record length, band) and the evaluation grid — not on the sample
    values or the candidate delay: where each point's taps lie, the Kaiser
    (or other) taper and the kernel term tables.  Fingerprint-adjacent
    campaign scenarios share all of it, which is what
    :class:`PlanStructureCache` exploits.

    The kernel arguments ``v``, the taper and the kernel tables have one row
    per distinct kernel offset (see :func:`_kernel_rows`) and
    ``num_taps + 1`` columns; ``row_index`` maps each grid point to its row.
    The tables are factored by angle addition along both axes:

    * *taps*: entry ``(r, j)`` has argument ``v = u_r + tau_j``, the offset
      of row ``r``'s centre sample from its point plus the tap's offset
      ``(j - nw/2) T``, so each sine or cosine table costs ``rows + taps``
      trigonometric values (:func:`_angle_tables`);
    * *delay*: each term keeps two on-grid tables and four delay-free
      delayed-channel tables (:class:`_KernelTermCache`).  A candidate delay
      then needs a few scalars per term (:meth:`delay_factors`) and one
      table ``1 / (v + D)`` shared by the terms (:meth:`reciprocal`), whose
      rare entries at the sinc's removable singularity are found from
      ``sorted_v`` and evaluated in product form (:meth:`exact_kernel`).

    There are two routes:

    * *Row-shared* (every dense uniform render): few rows (419 for the
      paper's 15,790-point spectrum grid), and the grid steps by ``q/p``
      sample periods, so point ``i``'s tap window starts at
      ``row_base[row_index[i]] + (i // p) q``.  Plans evaluate such a grid
      as a polyphase filter bank (:meth:`polyphase_sums`): the rows fall
      into ``groups`` by ``row_base`` (at most ``q + 2``), and each group
      contracts its kernels against one strided window per grid period of
      the zero-padded record.  Group ``(rows, windows, periods)`` lists the
      group's table rows, its windows (indices into the windows of the
      record padded by ``num_taps`` zeros on each side; only those that
      overlap the record) and the grid periods those windows belong to;
      ``point_index`` reads point ``i`` at ``(i // p, row_index[i])`` of
      the ``(periods, rows)`` sums.
    * *Per point* (random instants such as the LMS cost points, and any
      grid that fails a check of :func:`_kernel_rows`): one row per point,
      ``row_index`` is the identity slice and each row is its point's own
      window; ``step`` and the polyphase fields are ``None``.  Plans gather
      each point's samples around its ``centre`` sample (``None`` on the
      row-shared route, which needs no centres once its layout is built) and
      give the taps off the record zero weight.
    """

    __slots__ = (
        "times",
        "num_taps",
        "window",
        "kaiser_beta",
        "centre",
        "row_index",
        "taper",
        "terms",
        "delay_rates",
        "v",
        "sorted_v",
        "singular_radius",
        "step",
        "row_base",
        "num_periods",
        "groups",
        "point_index",
        "num_elements",
    )

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        times: np.ndarray,
        num_taps: int,
        window: str,
        kaiser_beta: float,
    ) -> None:
        period = sample_set.sample_period
        start = sample_set.start_time
        half = num_taps // 2
        centre = np.round((times - start) / period).astype(np.int64)
        rows = _kernel_rows(times, centre, start, period)
        first = row_index = slice(None)
        if rows is not None:
            first, row_index, p, q = rows

        # v = nT - t = row + tap: each row's centre sample minus its point,
        # plus each tap's offset (j - nw/2) T from the centre.  The on-grid
        # kernel argument is -v, the delayed-channel argument v + D_hat for
        # any candidate delay D_hat.  Taps off the record keep their
        # unclipped argument; plans give them zero weight.
        row = (start + centre[first] * period) - times[first]
        tap = np.arange(-half, half + 1) * period
        v = row[:, None] + tap
        taper = evaluate_taper(window, v / (half * period + period), kaiser_beta=kaiser_beta)

        band = sample_set.band
        k, k_plus = band_order(band)
        f_low = band.f_low
        bandwidth = band.bandwidth
        f_mirror = k * bandwidth - f_low
        f_high = f_low + bandwidth
        terms: list[_KernelTermCache] = []
        if not integer_band_positioning(band):
            terms.append(
                _KernelTermCache(
                    order=k,
                    scale=k - 2.0 * f_low / bandwidth,
                    oscillation_hz=f_mirror + f_low,
                    envelope_hz=f_mirror - f_low,
                    bandwidth=bandwidth,
                    row=row,
                    tap=tap,
                    v=v,
                )
            )
        terms.append(
            _KernelTermCache(
                order=k_plus,
                scale=2.0 * f_low / bandwidth + 1.0 - k,
                oscillation_hz=f_high + f_mirror,
                envelope_hz=f_high - f_mirror,
                bandwidth=bandwidth,
                row=row,
                tap=tap,
                v=v,
            )
        )

        self.times = times
        self.num_taps = num_taps
        self.window = window
        self.kaiser_beta = kaiser_beta
        self.centre = centre if rows is None else None
        self.row_index = row_index
        self.taper = taper
        self.terms = tuple(terms)
        # Per term: the rates of phi = order pi B D, alpha and gamma.
        self.delay_rates = np.array(
            [[term.c_phi, term.c_osc, np.pi * term.c_env] for term in terms]
        ).T
        self.v = v
        # One sorted copy of v finds, for every delay of a batch, whether any
        # entry sits within the sinc's Taylor threshold of v + D = 0 (for any
        # term) without scanning the (delays, rows, taps) block.
        self.sorted_v = np.sort(v, axis=None)
        self.singular_radius = _SINC_SERIES_THRESHOLD / min(term.c_env for term in terms)
        self.step = self.row_base = self.num_periods = self.groups = self.point_index = None
        held = [times, taper, v, self.sorted_v]
        held += [table for term in terms for table in (term.on_grid_cos, term.on_grid_sin)]
        held += self.delayed_tables()
        if rows is None:
            held.append(centre)
        else:
            self._lay_out_polyphase(centre[first] - half - (first // p) * q, p, q, len(sample_set))
            held += [row_index, self.row_base, self.point_index]
        self.num_elements = sum(array.size for array in held)

    def _lay_out_polyphase(self, row_base, p, q, num_samples) -> None:
        """Group the rows by window base and find each group's windows."""
        num_taps = self.num_taps
        num_rows = row_base.size
        num_periods = (self.times.size - 1) // p + 1
        bounds = [0, *(np.flatnonzero(np.diff(row_base)) + 1).tolist(), num_rows]
        groups = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            base = int(row_base[lo])
            # Periods k whose window [base + k q, base + k q + num_taps]
            # overlaps the record [0, num_samples); the others sum zeros.
            k_lo = max(0, -((num_taps + base) // q))
            k_hi = min(num_periods, (num_samples - 1 - base) // q + 1)
            if k_lo < k_hi:
                first_window = base + k_lo * q + num_taps
                windows = slice(first_window, first_window + (k_hi - k_lo) * q, q)
                groups.append((slice(lo, hi), windows, slice(k_lo, k_hi)))
        self.step = (p, q)
        self.row_base = row_base
        self.num_periods = num_periods
        self.groups = tuple(groups)
        self.point_index = (np.arange(self.times.size) // p) * num_rows + self.row_index

    def polyphase_sums(self, padded: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        """Eq. (6) tap sums of one channel against stacks of row kernels.

        ``padded`` is the channel's record with ``num_taps`` zeros on each
        side, which stand in for the taps that fall off the record.
        ``kernels`` has shape ``(stacks, rows, num_taps + 1)``; the result
        has shape ``(stacks, points)``.  Each group is one matmul of its
        strided windows (one per grid period) against its rows' kernels; a
        stack's sums never depend on the other stacks.
        """
        windows = sliding_window_view(padded, self.num_taps + 1)
        sums = np.zeros((kernels.shape[0], self.num_periods, kernels.shape[1]))
        for rows, group_windows, periods in self.groups:
            # Windows q < num_taps + 1 samples apart overlap, a layout BLAS
            # cannot read in place, so the group's few windows are packed.
            block = np.ascontiguousarray(windows[group_windows])
            sums[:, periods, rows] = block @ kernels[:, rows].transpose(0, 2, 1)
        return sums.reshape(kernels.shape[0], -1)[:, self.point_index]

    def delay_factors(self, delays: np.ndarray):
        """Per-delay scalars of every term: ``cot(phi)``, ``(terms, m)``, and the
        factors of :meth:`delayed_tables`, ``(m, 4 terms)``.

        ``cos(c_osc (v + D)) - sin(c_osc (v + D)) cot(phi)`` is
        ``cos_osc F - sin_osc Q`` with ``F = cos(alpha) - cot(phi) sin(alpha)``
        and ``Q = sin(alpha) + cot(phi) cos(alpha)``, ``alpha = c_osc D``;
        ``sin(pi c_env (v + D))`` is ``sin_env cos(gamma) + cos_env sin(gamma)``,
        ``gamma = pi c_env D``.  Their product pairs each of a term's four
        tables with one factor: ``cos(gamma) F``, ``-cos(gamma) Q``,
        ``sin(gamma) F`` and ``-sin(gamma) Q``.
        """
        phase_rate, oscillation_rate, envelope_rate = self.delay_rates
        column = delays[:, None]
        phi = phase_rate * column
        cot_phi = np.cos(phi) / np.sin(phi)
        alpha = oscillation_rate * column
        sin_alpha = np.sin(alpha)
        cos_alpha = np.cos(alpha)
        in_phase = cos_alpha - cot_phi * sin_alpha
        quadrature = sin_alpha + cot_phi * cos_alpha
        gamma = envelope_rate * column
        cos_gamma = np.cos(gamma)
        sin_gamma = np.sin(gamma)
        factors = np.stack(
            [
                cos_gamma * in_phase,
                -cos_gamma * quadrature,
                sin_gamma * in_phase,
                -sin_gamma * quadrature,
            ],
            axis=-1,
        )
        return cot_phi.T, factors.reshape(delays.size, -1)

    def delayed_tables(self):
        """The delay-free numerator tables of every term, in factor order."""
        return [table for term in self.terms for table in term.delayed]

    def reciprocal(self, delays: np.ndarray):
        """``1 / (v + D)`` of each delay, ``(m, rows, taps)``, and the entries it leaves out.

        Entries within the sinc's Taylor threshold of ``v + D = 0`` cannot
        be evaluated as a quotient: their reciprocal is zeroed before it is
        taken (so no inf or NaN reaches a contraction) and they are returned
        as ``None`` or ``(delay, row, tap, v + D)`` index and argument arrays,
        for :meth:`exact_kernel`.  Each delay's entries depend on that delay
        alone, not on the batch it shares.
        """
        arguments = self.v + delays[:, None, None]
        lower = np.searchsorted(self.sorted_v, -delays - self.singular_radius, "left")
        upper = np.searchsorted(self.sorted_v, -delays + self.singular_radius, "right")
        singular = None
        if np.any(upper > lower):
            # Rare: a point lies within ~1e-6 / c_env of a delayed sample.
            # The closed-interval bounds overcount; this scan decides.
            flat = arguments.reshape(-1)
            index = np.flatnonzero(np.abs(flat) < self.singular_radius)
            if index.size:
                delay, entry = np.divmod(index, self.v.size)
                singular = (delay, *np.unravel_index(entry, self.v.shape), flat[index])
                flat[index] = np.inf
        return np.reciprocal(arguments, out=arguments), singular

    def exact_kernel(self, singular, cot_phi: np.ndarray) -> np.ndarray:
        """The whole kernel at the entries :meth:`reciprocal` left out."""
        delay, _, _, argument = singular
        return sum(term.exact(argument, cot[delay]) for term, cot in zip(self.terms, cot_phi))


def _structure_key(
    sample_set: NonuniformSampleSet,
    times: np.ndarray,
    num_taps: int,
    window: str,
    kaiser_beta: float,
) -> tuple:
    """Cache key of the plan structure: acquisition geometry + exact grid.

    The grid enters through a cryptographic digest of its raw bytes, so two
    grids share a structure only when they are *bitwise* identical — the
    contract the compiled campaigns and the bit-identity gates rely on.
    """
    digest = hashlib.blake2b(times.tobytes(), digest_size=16).digest()
    return (
        digest,
        int(times.size),
        int(num_taps),
        window,
        float(kaiser_beta),
        float(sample_set.sample_period),
        float(sample_set.start_time),
        len(sample_set),
        float(sample_set.band.f_low),
        float(sample_set.band.bandwidth),
    )


class PlanStructureCache:
    """LRU cache of shared plan structures with hit/miss/eviction counters.

    One cache is typically threaded through every scenario of a compiled
    campaign group: the first scenario pays for the taper and kernel
    trigonometry of each grid, the rest reuse them.  Eviction is sized in
    the values each structure holds (its ``num_elements``) rather than entry
    count, because structures differ in size by orders of magnitude: a grid
    with one kernel row per point holds ~15 values per point and tap, a
    dense uniform render only its distinct rows.  The most recent entry is
    never evicted, so an oversized structure still serves the group being
    executed.
    """

    #: Retained-value budget (16 MB of float64).  One paper-default ``run()``
    #: builds ~1.08M values of structures: two 300-point calibration grids at
    #: 0.275M each, the dense spectrum grid at 0.431M and the EVM grid at
    #: 0.094M.
    MAX_ELEMENTS = 2_000_000

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, _PlanStructure] = OrderedDict()
        self._total_elements = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: tuple) -> _PlanStructure | None:
        """The cached structure for ``key``, or ``None`` (counts the miss)."""
        structure = self._entries.get(key)
        if structure is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return structure

    def store(self, key: tuple, structure: _PlanStructure) -> None:
        """Insert a freshly built structure, evicting LRU entries over budget."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = structure
        self._total_elements += structure.num_elements
        while self._total_elements > self.MAX_ELEMENTS and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._total_elements -= evicted.num_elements
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached structure (counters are preserved)."""
        self._entries.clear()
        self._total_elements = 0

    @property
    def stats(self) -> dict:
        """JSON-friendly counters: hits, misses, evictions, current footprint."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "entries": len(self._entries),
            "elements": self._total_elements,
        }


class ReconstructionPlan:
    """Precompiled Eq. (6) evaluator for a fixed evaluation-time grid.

    The Section IV skew calibration evaluates the *same* ~300 time instants
    under hundreds of candidate delays; only the kernel phase terms depend on
    the delay, yet the direct evaluator redoes the tap indexing, the sample
    gathering, the taper (a modified-Bessel evaluation for the Kaiser window)
    and the full kernel trigonometry on every call.  A plan performs all of
    that delay-independent work once at construction; a candidate delay
    then costs a handful of scalar trigonometric calls, one reciprocal
    table ``1 / (v + D)`` and one contraction.

    The on-grid channel's tap sums are computed once, at construction; the
    delayed channel's once per candidate delay, through the structure's
    delay-free tables (see :class:`_PlanStructure`).  How a plan sums taps
    follows its structure's route:

    * *row-shared* (dense uniform renders): a polyphase filter bank.  The
      plan keeps each channel's record padded with ``num_taps`` zeros on
      each side, which stand in for the taps off the record, and contracts
      the row kernels against strided windows of it: for the delayed
      channel, the tables combined with the delay's factors, times the
      reciprocal table and the taper; no ``(points, taps)`` array is built;
    * *per point* (random instants such as the LMS cost points): the plan
      gathers each point's tap window, masks the taps off the record and
      folds the taper, the masked delayed-channel samples and the delayed
      tables into one ``(points, taps, 4 terms)`` array.  A batch of
      delays is one matmul ``(delays, points, 1, taps) @ (points, taps,
      4 terms)`` of their reciprocal tables against it, then each (delay,
      point) row against its delay's factors.

    Either way a delay's row is the same whatever delays share its batch.

    Parameters
    ----------
    sample_set:
        The acquired nonuniform samples.
    evaluation_times:
        The fixed 1-D grid of time instants the plan evaluates.
    num_taps:
        ``nw``: the number of sample pairs on each side of the evaluation
        instant is ``nw / 2`` (the paper's 61-tap filter corresponds to
        ``nw = 60``).
    window:
        Name of the taper applied over the truncated kernel support
        (``"kaiser"``, ``"hann"``, ``"hamming"``, ``"blackman"``,
        ``"rectangular"``).
    kaiser_beta:
        Kaiser shape parameter when ``window == "kaiser"``.
    structure_cache:
        Optional :class:`PlanStructureCache`.  When given, the
        sample-independent half of the plan is looked up there (and stored on
        a miss), so plans over the same acquisition geometry and grid — e.g.
        the scenarios of one compiled campaign group — share taper and kernel
        trigonometry instead of rebuilding them.
    """

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        evaluation_times,
        num_taps: int = 60,
        window: str = "kaiser",
        kaiser_beta: float = 8.0,
        structure_cache: PlanStructureCache | None = None,
    ) -> None:
        if not isinstance(sample_set, NonuniformSampleSet):
            raise ValidationError("sample_set must be a NonuniformSampleSet")
        times = np.atleast_1d(np.asarray(evaluation_times, dtype=float))
        if times.ndim != 1:
            raise ValidationError("evaluation_times must be a 1-D array of time instants")
        num_taps = check_integer(num_taps, "num_taps", minimum=2)
        if num_taps % 2 != 0:
            raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
        self._samples = sample_set
        self._times = times
        self._num_taps = num_taps
        self._window = str(window)
        self._kaiser_beta = float(kaiser_beta)

        structure = None
        if structure_cache is not None:
            if not isinstance(structure_cache, PlanStructureCache):
                raise ValidationError("structure_cache must be a PlanStructureCache")
            key = _structure_key(sample_set, times, num_taps, self._window, self._kaiser_beta)
            structure = structure_cache.lookup(key)
        if structure is None:
            structure = _PlanStructure(
                sample_set, times, num_taps, self._window, self._kaiser_beta
            )
            if structure_cache is not None:
                structure_cache.store(key, structure)
        self._structure = structure
        # The on-grid channel's only delay dependence is the scalar cot_phi
        # of each term, so its tap contraction folds into two delay-free dot
        # products per term; evaluating a candidate then reduces the channel
        # to (num_times,)-sized work instead of (num_times, num_taps).
        if structure.groups is None:
            half = num_taps // 2
            tap_index = structure.centre[:, None] + np.arange(-half, half + 1)
            valid = (tap_index >= 0) & (tap_index < len(sample_set))
            clipped = np.clip(tap_index, 0, len(sample_set) - 1)
            weight = np.where(valid, structure.taper, 0.0)
            weighted_on_grid = sample_set.on_grid[clipped] * weight
            self._weighted_delayed = sample_set.delayed[clipped] * weight
            self._on_grid_dots = tuple(
                (
                    np.einsum("np,np->n", weighted_on_grid, term.on_grid_cos),
                    np.einsum("np,np->n", weighted_on_grid, term.on_grid_sin),
                )
                for term in structure.terms
            )
            # The delayed tables with the taper, the samples and the mask
            # folded in, (points, taps, 4 terms): a delay batch is then one
            # matmul of its reciprocal table against them.
            tables = structure.delayed_tables()
            self._delayed_tables = np.empty(weight.shape + (len(tables),))
            for column, table in enumerate(tables):
                np.multiply(table, self._weighted_delayed, out=self._delayed_tables[..., column])
        else:
            # Zero padding stands in for the taps off the record.
            self._delayed_padded = np.pad(sample_set.delayed, num_taps)
            tables = [
                table for term in structure.terms for table in (term.on_grid_cos, term.on_grid_sin)
            ]
            kernels = np.empty((len(tables),) + structure.taper.shape)
            for kernel, table in zip(kernels, tables):
                np.multiply(structure.taper, table, out=kernel)
            dots = structure.polyphase_sums(np.pad(sample_set.on_grid, num_taps), kernels)
            self._on_grid_dots = tuple(zip(dots[0::2], dots[1::2]))

    # ------------------------------------------------------------------ #
    # Public attributes
    # ------------------------------------------------------------------ #
    @property
    def sample_set(self) -> NonuniformSampleSet:
        """The acquisition this plan reconstructs from."""
        return self._samples

    @property
    def evaluation_times(self) -> np.ndarray:
        """The fixed time grid the plan evaluates (do not mutate)."""
        return self._times

    @property
    def num_taps(self) -> int:
        """The truncation parameter ``nw``."""
        return self._num_taps

    @property
    def window(self) -> str:
        """Name of the reconstruction taper."""
        return self._window

    @property
    def kaiser_beta(self) -> float:
        """Kaiser shape parameter of the taper."""
        return self._kaiser_beta

    @property
    def structure(self) -> _PlanStructure:
        """The (possibly shared) sample-independent half of this plan.

        Plans built through one :class:`PlanStructureCache` over the same
        acquisition geometry and bitwise-identical grid return the *same
        object* here.
        """
        return self._structure

    def valid_time_range(self, assumed_delay: float | None = None) -> tuple[float, float]:
        """Interval over which the truncated sum has full kernel support."""
        half_span = (self._num_taps // 2) * self._samples.sample_period
        delay = self._samples.delay if assumed_delay is None else float(assumed_delay)
        return (
            self._samples.start_time + half_span,
            self._samples.end_time - half_span - delay,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, assumed_delay: float, validate: bool = True) -> np.ndarray:
        """Reconstruct at the plan's time grid under one assumed delay."""
        if validate:
            assumed_delay = self._validate_delay(assumed_delay)
        return self._evaluate_batch(np.array([float(assumed_delay)]))[0]

    def evaluate_many(self, assumed_delays, validate: bool = True) -> np.ndarray:
        """Batched Eq. (6): one row of reconstructions per candidate delay.

        Adds a leading delay axis to the kernel evaluation, so the plan's
        samples, taper and cached trigonometry are shared across all
        candidates; returns an array of shape ``(num_delays, num_times)``.
        The batch is processed in chunks along the delay axis to bound the
        size of the broadcast temporaries.
        """
        delays = np.atleast_1d(np.asarray(assumed_delays, dtype=float))
        if delays.ndim != 1:
            raise ValidationError("assumed_delays must be a 1-D array of candidate delays")
        if validate:
            for delay in delays:
                self._validate_delay(delay)
        result = np.empty((delays.size, self._times.size))
        per_delay = max(1, self._times.size * (self._num_taps + 1))
        chunk = max(1, _BATCH_ELEMENT_BUDGET // per_delay)
        for start in range(0, delays.size, chunk):
            block = delays[start : start + chunk]
            result[start : start + block.size] = self._evaluate_batch(block)
        return result

    def _evaluate_batch(self, delays: np.ndarray) -> np.ndarray:
        """Core batched evaluation over a validated chunk of delays.

        Every step is elementwise or contracts one (delay, point) or one
        delay's rows at a time, so a delay's row never depends on the other
        delays of its batch.
        """
        structure = self._structure
        cot_phi, factors = structure.delay_factors(delays)
        on_grid_total = None
        for cot, (dot_cos, dot_sin) in zip(cot_phi, self._on_grid_dots):
            on_grid = dot_cos + cot[:, None] * dot_sin
            if on_grid_total is None:
                on_grid_total = on_grid
            else:
                on_grid_total += on_grid
        reciprocal, singular = structure.reciprocal(delays)
        exact = None if singular is None else structure.exact_kernel(singular, cot_phi)
        if structure.groups is None:
            # (delays, points, 1, taps) @ (points, taps, 4 terms), then each
            # (delay, point) row against its delay's factors.
            sums = np.matmul(reciprocal[:, :, None, :], self._delayed_tables)
            delayed = np.matmul(sums, factors[:, None, :, None])[:, :, 0, 0]
            if singular is not None:
                delay, row, tap, _ = singular
                np.add.at(delayed, (delay, row), self._weighted_delayed[row, tap] * exact)
            return on_grid_total + delayed
        tables = structure.delayed_tables()
        kernels = tables[0] * factors[:, 0, None, None]
        scratch = np.empty_like(kernels)
        for column in range(1, len(tables)):
            kernels += np.multiply(tables[column], factors[:, column, None, None], out=scratch)
        kernels *= reciprocal
        if singular is not None:
            kernels[singular[:3]] = exact
        kernels *= structure.taper
        return on_grid_total + structure.polyphase_sums(self._delayed_padded, kernels)

    def _validate_delay(self, delay: float) -> float:
        """Reject delays Eq. (3) forbids, mirroring the direct evaluator."""
        delay = check_positive(delay, "assumed_delay")
        return check_delay(self._samples.band, delay, tolerance=DEFAULT_DELAY_TOLERANCE)


def evaluate_stacked(plans, assumed_delays, validate: bool = True) -> np.ndarray:
    """Evaluate many plans, one delay each, into one array.

    The cross-*scenario* companion of :meth:`ReconstructionPlan.evaluate_many`:
    the plans are validated together and evaluated one after another, so
    row ``i`` is ``plans[i].evaluate(assumed_delays[i])`` by construction.
    It has no production caller: the campaign compiler runs each scenario
    of a group through :meth:`~repro.bist.engine.TransmitterBist.run` over
    one :class:`PlanStructureCache`.  It stays until the benchmark, which
    traces it by name, stops doing so.

    Parameters
    ----------
    plans:
        Sequence of :class:`ReconstructionPlan`, all over grids of the same
        length.
    assumed_delays:
        One assumed delay per plan.
    validate:
        Whether to validate every delay against Eq. (3); pass ``False`` when
        the delays were validated upstream (e.g. at reconstructor
        construction), matching :meth:`NonuniformReconstructor.evaluate`.

    Returns
    -------
    numpy.ndarray
        Shape ``(num_plans, num_times)``; row ``i`` equals
        ``plans[i].evaluate(assumed_delays[i])`` bit-for-bit.
    """
    plans = list(plans)
    if not plans:
        raise ValidationError("evaluate_stacked needs at least one plan")
    for plan in plans:
        if not isinstance(plan, ReconstructionPlan):
            raise ValidationError("all stacked entries must be ReconstructionPlan instances")
    delays = np.atleast_1d(np.asarray(assumed_delays, dtype=float))
    if delays.ndim != 1 or delays.size != len(plans):
        raise ValidationError("assumed_delays must provide exactly one delay per plan")
    num_times = plans[0].evaluation_times.size
    for plan in plans[1:]:
        if plan.evaluation_times.size != num_times:
            raise ValidationError(
                "stacked plans must share one evaluation-time grid length; "
                "group scenarios by their exact grid before stacking"
            )
    if validate:
        for plan, delay in zip(plans, delays):
            plan._validate_delay(delay)

    out = np.empty((len(plans), num_times))
    for index, plan in enumerate(plans):
        out[index] = plan._evaluate_batch(delays[index : index + 1])[0]
    return out


class NonuniformReconstructor:
    """Truncated, windowed Kohlenberg reconstruction (Eq. 6 of the paper).

    A thin façade over :class:`ReconstructionPlan` that binds one assumed
    delay and accepts arbitrary time grids: every :meth:`evaluate` compiles a
    plan for its grid and evaluates it once.  Every production render
    evaluates each grid once per reconstructor, so the plan is not kept;
    sharing across scenarios goes through the optional
    :class:`PlanStructureCache` instead.

    Parameters
    ----------
    sample_set:
        The acquired nonuniform samples.
    assumed_delay:
        The delay estimate ``D_hat`` used to build the kernel *and* to place
        the delayed samples on the time axis.  Defaults to the sample set's
        true delay (i.e. perfect knowledge).
    num_taps:
        ``nw``: the number of sample pairs on each side of the evaluation
        instant is ``nw / 2`` (the paper's 61-tap filter corresponds to
        ``nw = 60``).
    window:
        Name of the taper applied over the truncated kernel support
        (``"kaiser"``, ``"hann"``, ``"hamming"``, ``"blackman"``,
        ``"rectangular"``).
    kaiser_beta:
        Kaiser shape parameter when ``window == "kaiser"``.
    structure_cache:
        Optional :class:`PlanStructureCache` threaded into every plan this
        reconstructor builds, which is where fingerprint-adjacent scenarios
        share the expensive taper/trigonometry work of their dense grids.
    """

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        assumed_delay: float | None = None,
        num_taps: int = 60,
        window: str = "kaiser",
        kaiser_beta: float = 8.0,
        structure_cache: PlanStructureCache | None = None,
    ) -> None:
        if not isinstance(sample_set, NonuniformSampleSet):
            raise ValidationError("sample_set must be a NonuniformSampleSet")
        if structure_cache is not None and not isinstance(structure_cache, PlanStructureCache):
            raise ValidationError("structure_cache must be a PlanStructureCache")
        self._samples = sample_set
        self._assumed_delay = (
            sample_set.delay if assumed_delay is None else check_positive(assumed_delay, "assumed_delay")
        )
        self._num_taps = check_integer(num_taps, "num_taps", minimum=2)
        if self._num_taps % 2 != 0:
            raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
        self._window = str(window)
        self._kaiser_beta = float(kaiser_beta)
        self._kernel = KohlenbergKernel(sample_set.band, self._assumed_delay)
        self._structure_cache = structure_cache

    @property
    def assumed_delay(self) -> float:
        """The delay estimate ``D_hat`` this reconstructor was built with."""
        return self._assumed_delay

    @property
    def kernel(self) -> KohlenbergKernel:
        """The underlying Kohlenberg kernel."""
        return self._kernel

    @property
    def num_taps(self) -> int:
        """The truncation parameter ``nw``."""
        return self._num_taps

    @property
    def window(self) -> str:
        """Name of the reconstruction taper."""
        return self._window

    @property
    def structure_cache(self) -> PlanStructureCache | None:
        """The shared structure cache threaded into this reconstructor's plans."""
        return self._structure_cache

    def valid_time_range(self) -> tuple[float, float]:
        """Time interval over which the truncated sum has full support.

        Evaluating outside this interval silently degrades accuracy because
        part of the kernel support falls off the acquired record.
        """
        half_span = (self._num_taps // 2) * self._samples.sample_period
        return (
            self._samples.start_time + half_span,
            self._samples.end_time - half_span - self._assumed_delay,
        )

    def plan_for(self, times) -> ReconstructionPlan:
        """A freshly compiled plan for ``times`` under this reconstructor's settings.

        With a :class:`PlanStructureCache` attached, the expensive
        sample-independent structure is shared across scenarios.
        """
        return ReconstructionPlan(
            self._samples,
            times,
            num_taps=self._num_taps,
            window=self._window,
            kaiser_beta=self._kaiser_beta,
            structure_cache=self._structure_cache,
        )

    def evaluate(self, times) -> np.ndarray:
        """Evaluate the reconstructed waveform at arbitrary time instants.

        Implements Eq. (6): for each requested time ``t`` the sum runs over
        the ``nw + 1`` sample pairs nearest to ``t``, each contribution being
        ``f(nT) * s(t - nT) + f(nT + D_hat) * s(nT + D_hat - t)``, windowed
        across the truncated support.  The assumed delay was validated at
        construction, so the plan is evaluated without re-checking it.
        """
        return self.plan_for(times).evaluate(self._assumed_delay, validate=False)

    def __call__(self, times) -> np.ndarray:
        return self.evaluate(times)


def reference_evaluate(
    sample_set: NonuniformSampleSet,
    times,
    assumed_delay: float | None = None,
    num_taps: int = 60,
    window: str = "kaiser",
    kaiser_beta: float = 8.0,
) -> np.ndarray:
    """Direct (pre-plan) evaluation of Eq. (6), kept as the numerical oracle.

    This is the original hot-path implementation, preserved verbatim: it
    redoes the tap indexing, gathering, taper and the full kernel
    trigonometry on every call.  The plan-based evaluators are required to
    agree with it to tight tolerance (see the equivalence tests and
    ``benchmarks/bench_reconstruction.py``); do not "optimise" this function.
    """
    if not isinstance(sample_set, NonuniformSampleSet):
        raise ValidationError("sample_set must be a NonuniformSampleSet")
    delay = (
        sample_set.delay if assumed_delay is None else check_positive(assumed_delay, "assumed_delay")
    )
    num_taps = check_integer(num_taps, "num_taps", minimum=2)
    if num_taps % 2 != 0:
        raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
    kernel = KohlenbergKernel(sample_set.band, delay)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    period = sample_set.sample_period
    half = num_taps // 2

    centre_index = np.round((times - sample_set.start_time) / period).astype(np.int64)
    offsets = np.arange(-half, half + 1)
    index_matrix = centre_index[:, None] + offsets[None, :]
    valid = (index_matrix >= 0) & (index_matrix < len(sample_set))
    clipped = np.clip(index_matrix, 0, len(sample_set) - 1)

    grid_times = sample_set.start_time + clipped * period
    argument_on_grid = times[:, None] - grid_times
    argument_delayed = grid_times + delay - times[:, None]

    window_name = str(window).lower()
    x = np.clip(np.abs(argument_on_grid) / (half * period + period), 0.0, 1.0)
    if window_name in ("rectangular", "boxcar", "rect"):
        taper = np.ones_like(x)
    elif window_name == "hann":
        taper = 0.5 + 0.5 * np.cos(np.pi * x)
    elif window_name == "hamming":
        taper = 0.54 + 0.46 * np.cos(np.pi * x)
    elif window_name == "blackman":
        taper = 0.42 + 0.5 * np.cos(np.pi * x) + 0.08 * np.cos(2.0 * np.pi * x)
    elif window_name == "kaiser":
        argument = float(kaiser_beta) * np.sqrt(np.clip(1.0 - x**2, 0.0, None))
        taper = np.i0(argument) / np.i0(float(kaiser_beta))
    else:
        raise ReconstructionError(f"unknown reconstruction window {window!r}")

    contributions = (
        sample_set.on_grid[clipped] * kernel.s(argument_on_grid)
        + sample_set.delayed[clipped] * kernel.s(argument_delayed)
    )
    contributions = np.where(valid, contributions * taper, 0.0)
    return np.sum(contributions, axis=1)

