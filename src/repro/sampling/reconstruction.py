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
* :class:`ReconstructionPlan` — the precompiled evaluator of Eq. (6) for
  *many delays over a few instants* (the Section IV skew calibration): for a
  fixed ``(sample_set, evaluation_times, num_taps)`` it computes the Kaiser
  taper (``beta = 8``, as in the paper), the weighted samples and the
  on-grid channel's contribution **once**, then evaluates the
  reconstruction for any assumed delay ``D_hat`` — including a batched
  :meth:`ReconstructionPlan.evaluate_many` that adds a leading delay axis.
  The Eq. (2) kernel is factored into a tap part and a row part instead of
  being tabulated per point and tap: by product to sum each term is a
  difference of two cosines over its argument, every argument is a row
  offset plus a tap offset (plus ``D``), so a weighted tap sum is one matmul
  against a ``(taps, 4 terms)`` basis of tap cosines and sines, turned by
  each point's row angle and by a scalar of ``D``.  A candidate delay costs
  one ``(points, taps)`` division and one matmul.  A plan keeps one row per
  point and gathers each point's tap window;
* the dense render behind :meth:`NonuniformReconstructor.evaluate` — *one
  delay over a dense uniform grid* (the measurement renders).  Such a grid
  at rate ``fs`` has only as many distinct kernel offsets as the numerator
  ``p`` of ``fs / B = p / q`` (plus one per half-sample tie), so it is a
  polyphase filter bank: each group of rows that shares a window base is one
  matmul of its kernels against one strided window of the zero-padded
  record per grid period.  The on-grid and delayed kernels are built at
  ``D_hat`` from the same factored kernel, a block of groups at a time: each
  row's angles, turned by ``D_hat``, are its coefficients on the tap basis,
  one matmul per group gives the numerators, and a division by the argument
  and the taper finish them.  They are dropped once contracted; nothing is
  kept;
* :class:`PlanStructureCache` — shares the *sample-independent* half of a
  plan (tap windows, taper, the kernel's tap basis and row tables) between
  plans whose acquisition geometry and evaluation grid coincide.
  Fingerprint-adjacent campaign scenarios with the same cost instants share
  their LMS cost plans through it when the campaign compiler runs a group
  over one cache; dense renders keep no structure and never look one up;
* :func:`evaluate_stacked` — evaluates many plans, one delay each, into one
  array; row ``i`` is ``plans[i].evaluate`` by construction.  No campaign
  path calls it any more (the benchmark still traces it by name);
* :class:`NonuniformReconstructor` — binds one assumed delay ``D_hat`` and
  evaluates arbitrary time grids: a dense uniform grid through the render,
  any other grid (random instants) through a :class:`ReconstructionPlan`
  evaluated once (the assumed delay is deliberately decoupled from the true
  delay used during acquisition, because estimating that true delay is
  exactly the calibration problem of Section IV);
* :func:`reference_evaluate` — the direct, pre-plan evaluation of Eq. (6),
  kept verbatim as the numerical oracle for equivalence tests and the
  before/after benchmark baseline; the window ablation sweeps its other
  tapers.
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
#: processed in chunks along the delay axis: the ``w / (v + D)`` block must
#: stay cache-resident or the batch becomes memory-bandwidth-bound.  On the
#: 300-point, 61-tap cost plans this is 16 delays a chunk.  A 128-candidate
#: ``evaluate_many`` on one cost plan took 7.4-7.5 ms at 4 to 16 delays a
#: chunk, 8.5 ms at 64, 12.0 ms in one chunk of 128 and 11.2 ms one delay at
#: a time (2-CPU container).
_BATCH_ELEMENT_BUDGET = 300_000

#: Upper bound on the ``rows * (num_taps + 1)`` kernel values per channel a
#: dense render builds at once (:class:`_DenseRender`).  Consecutive window
#: groups are built together up to this budget, contracted and dropped, so
#: the temporaries stay cache-sized.  Both paper grids are one block (419 and
#: 49 rows of 61 taps); the 20,163 rows of the ``uhf-8psk-400mhz`` spectrum
#: grid take 41.  On that grid a render took 45-53 ms at 16k to 64k values a
#: block, 50 ms at 8k, 53-54 ms at 128k and 81-87 ms at 256k (medians of
#: five, two runs, 2-CPU container).
_RENDER_ELEMENT_BUDGET = 32_768

#: A band's singular radius is this over its kernel's smallest envelope:
#: arguments ``x`` closer to 0 are evaluated in product form (``np.sinc``)
#: instead of as a quotient over ``x``, whose absolute error (~1e-16 / x)
#: would otherwise grow as ``x`` shrinks.
_SINC_SERIES_THRESHOLD = 1.0e-6

#: Floor, as a fraction of ``B``, on the envelope that sizes that radius.  A
#: term's quotient errs by ~1e-16 ``c_t / |x|`` with ``c_t = scale / (2 pi
#: envelope) = 1 / (2 pi B)`` (``scale = envelope / B``), so a vanishing
#: envelope needs no wider radius.  Every shipped profile's smallest envelope
#: is above ``0.049 B``, so the floor never sets their radius.
_RADIUS_ENVELOPE_FLOOR = 0.01


def _kernel_terms(band: BandpassBand) -> list[tuple[int, float, float, float]]:
    """``(order, scale, oscillation_hz, envelope_hz)`` of each Eq. (2) term.

    Each term is ``scale * sinc(envelope_hz t) * (cos(pi oscillation_hz t)
    - sin(pi oscillation_hz t) * cot(order pi B D))``, the cancellation-free
    product form of :class:`KohlenbergKernel`.  The first term (Eq. 2b)
    vanishes under integer band positioning and is left out.
    """
    k, k_plus = band_order(band)
    f_low = band.f_low
    bandwidth = band.bandwidth
    f_mirror = k * bandwidth - f_low
    f_high = f_low + bandwidth
    terms = []
    if not integer_band_positioning(band):
        terms.append((k, k - 2.0 * f_low / bandwidth, f_mirror + f_low, f_mirror - f_low))
    terms.append((k_plus, 2.0 * f_low / bandwidth + 1.0 - k, f_high + f_mirror, f_high - f_mirror))
    return terms


class _FactoredKernel:
    """The Eq. (2) kernel of one band by product to sum, for plans and renders alike.

    Term ``t`` of the kernel (:func:`_kernel_terms`) is

        ``s_t(x) = c_t [cos(P_t x - phi_t) - cos(Q_t x + phi_t)] / (x sin(phi_t))``

    with ``c_t = scale / (2 pi envelope)``, ``P_t = pi (envelope +
    oscillation)``, ``Q_t = pi (envelope - oscillation)`` and ``phi_t = order
    pi B D``: the sum over the term's two ``rates`` (``P_t`` with sign +1,
    ``Q_t`` with sign -1) of ``gain cos(r x - sign phi_t) / (x sin phi_t)``,
    ``gain = sign c_t``.  Every argument is a row offset plus a tap offset
    (plus ``D``), so each cosine splits by angle addition into the
    :meth:`tap_basis` and per-row angles (:meth:`row_tables`); at ``x = v +
    D`` the delay turns rate ``r`` by ``beta = r D - sign phi = D
    delay_rate``.  Entries within ``singular_radius`` of ``x = 0``, the
    sinc's removable singularity, go through :meth:`product_form`.
    """

    __slots__ = ("terms", "rates", "delay_rates", "gains", "phase_rates", "singular_radius")

    def __init__(self, band: BandpassBand) -> None:
        terms = tuple(_kernel_terms(band))
        bandwidth = band.bandwidth
        rates, delay_rates, gains = [], [], []
        for order, scale, oscillation_hz, envelope_hz in terms:
            for sign in (1.0, -1.0):
                rate = np.pi * (envelope_hz + sign * oscillation_hz)
                rates.append(rate)
                delay_rates.append(rate - sign * order * np.pi * bandwidth)
                gains.append(sign * scale / (2.0 * np.pi * envelope_hz))
        self.terms = terms
        self.rates = np.array(rates)
        self.delay_rates = np.array(delay_rates)
        self.gains = np.array(gains)
        self.phase_rates = np.array([order * np.pi * bandwidth for order, _, _, _ in terms])
        envelope = max(min(term[3] for term in terms), _RADIUS_ENVELOPE_FLOOR * bandwidth)
        self.singular_radius = _SINC_SERIES_THRESHOLD / envelope

    def tap_basis(self, tap: np.ndarray) -> np.ndarray:
        """``cos(r tau)`` then ``sin(r tau)`` of each tap offset ``tau``: ``(taps, 2 R)``."""
        angle = tap[:, None] * self.rates
        return np.concatenate([np.cos(angle), np.sin(angle)], axis=1)

    def row_tables(self, row: np.ndarray):
        """``cos(r row)`` and ``sin(r row)`` of each row offset: ``(R, rows)`` each."""
        angle = self.rates[:, None] * row
        return np.cos(angle), np.sin(angle)

    def phases(self, delays: np.ndarray):
        """``sin(phi)`` and ``cot(phi)`` of each term at each delay: ``(delays, terms)`` each."""
        phi = delays[:, None] * self.phase_rates
        sin_phi = np.sin(phi)
        return sin_phi, np.cos(phi) / sin_phi

    def product_form(self, argument: np.ndarray):
        """Each term at ``argument`` as ``(scale sinc(envelope x) cos(pi oscillation x), ... sin(...))``.

        The term is the first part minus ``cot(phi)`` times the second
        (:func:`_kernel_terms`); ``np.sinc`` handles ``x = 0``.
        """
        parts = []
        for _, scale, oscillation_hz, envelope_hz in self.terms:
            envelope = scale * np.sinc(envelope_hz * argument)
            oscillation = np.pi * oscillation_hz * argument
            parts.append((envelope * np.cos(oscillation), envelope * np.sin(oscillation)))
        return parts


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
    not be fewer than the points: random instants and arbitrary grids are
    then evaluated through a :class:`ReconstructionPlan`.
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
    # Keys 3 phase + residual + 1 lie in [0, 3p).  NumPy writes repeated
    # indices in order, so a scatter in reverse leaves each key's first
    # point; rows are numbered in key order, as sorting the keys would.
    key = 3 * phase + residual + 1
    first_of_key = np.full(3 * p, num_times)
    first_of_key[key[::-1]] = index[::-1]
    present = first_of_key < num_times
    first = first_of_key[present]
    if first.size >= num_times:
        return None
    row_index = (np.cumsum(present) - 1)[key]
    centre_argument = (start + centre * period) - times
    tolerance = 4.0 * np.spacing(np.abs(times).max() + abs(start))
    if np.abs(centre_argument - centre_argument[first][row_index]).max() > tolerance:
        return None
    order = np.argsort(centre[first] - (first // p) * q, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[row_index], p, q


class _DenseRender:
    """Eq. (6) at one delay over a dense uniform grid, keeping no structure.

    A grid that :func:`_kernel_rows` accepts has few distinct kernel rows
    (419 for the paper's 15,790-point spectrum grid), and it steps by ``q/p``
    sample periods, so point ``i``'s tap window starts at
    ``row_base[row_index[i]] + (i // p) q``.  The render is a polyphase filter
    bank over that layout: the rows fall into ``groups`` by ``row_base`` (at
    most ``q + 2``), and each group contracts its kernels against one strided
    window per grid period of each channel's record, zero-padded by
    ``num_taps`` on each side for the taps off the record.  Group ``(rows,
    windows, periods)`` lists the group's rows, its windows (indices into the
    windows of the padded record; only those that overlap the record) and
    the grid periods those windows belong to; ``point_index`` reads point
    ``i`` at ``(i // p, row_index[i])`` of the ``(periods, rows)`` sums.

    :meth:`evaluate` builds the on-grid and delayed kernels at the one delay
    from the cost plans' factored kernel (:meth:`_kernels`), for consecutive
    groups of up to :data:`_RENDER_ELEMENT_BUDGET` kernel values at a time,
    and drops each block once contracted.  The layout is all a render holds:
    ``row`` (each row's centre sample minus its point) and ``row_base`` per
    row, ``point_index`` per point.
    """

    __slots__ = (
        "sample_set",
        "num_taps",
        "row",
        "row_base",
        "step",
        "num_periods",
        "groups",
        "point_index",
    )

    def __init__(
        self, sample_set: NonuniformSampleSet, times: np.ndarray, num_taps: int, centre, rows
    ) -> None:
        first, row_index, p, q = rows
        period = sample_set.sample_period
        half = num_taps // 2
        num_rows = first.size
        num_samples = len(sample_set)
        row_base = centre[first] - half - (first // p) * q
        num_periods = (times.size - 1) // p + 1
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
        self.sample_set = sample_set
        self.num_taps = num_taps
        self.row = (sample_set.start_time + centre[first] * period) - times[first]
        self.row_base = row_base
        self.step = (p, q)
        self.num_periods = num_periods
        self.groups = tuple(groups)
        self.point_index = (np.arange(times.size) // p) * num_rows + row_index

    @classmethod
    def of(cls, sample_set: NonuniformSampleSet, times: np.ndarray, num_taps: int):
        """The render of ``times``, or ``None`` when :func:`_kernel_rows` rejects the grid."""
        start, period = sample_set.start_time, sample_set.sample_period
        centre = np.round((times - start) / period).astype(np.int64)
        rows = _kernel_rows(times, centre, start, period)
        return None if rows is None else cls(sample_set, times, num_taps, centre, rows)

    def _blocks(self):
        """Runs of consecutive groups within the budget's rows (a whole group at least)."""
        limit = max(1, _RENDER_ELEMENT_BUDGET // (self.num_taps + 1))
        block = []
        for group in self.groups:
            if block and group[0].stop - block[0][0].start > limit:
                yield block
                block = []
            block.append(group)
        if block:
            yield block

    def evaluate(self, delay: float) -> np.ndarray:
        """The reconstruction at every grid point under ``delay``."""
        samples = self.sample_set
        width = self.num_taps + 1
        on_grid = sliding_window_view(np.pad(samples.on_grid, self.num_taps), width)
        delayed = sliding_window_view(np.pad(samples.delayed, self.num_taps), width)
        kernel = _FactoredKernel(samples.band)
        sums = np.zeros((self.num_periods, self.row.size))
        for block in self._blocks():
            first_row = block[0][0].start
            kernels = self._kernels(kernel, block, delay)
            for rows, windows, periods in block:
                local = slice(rows.start - first_row, rows.stop - first_row)
                # Windows q < num_taps + 1 samples apart overlap, a layout
                # BLAS cannot read in place, so the group's few are packed.
                group_sums = np.ascontiguousarray(on_grid[windows]) @ kernels[0, local].T
                group_sums += np.ascontiguousarray(delayed[windows]) @ kernels[1, local].T
                sums[periods, rows] = group_sums
        return sums.reshape(-1)[self.point_index]

    def _kernels(self, kernel: _FactoredKernel, block, delay: float) -> np.ndarray:
        """The tapered on-grid and delayed kernels of a block of groups: ``(2, rows, taps)``.

        At argument ``x`` rate ``r`` adds ``gain cos(r x - sign phi) / (x sin
        phi)``: on-grid (``x = -v``) ``-gain cos(r v + sign phi) / (v sin
        phi)``, delayed (``x = v + D``) ``gain cos(r v + beta) / ((v + D) sin
        phi)``.  As ``cos(r (row + tau) + a) = cos(r row + a) cos(r tau) -
        sin(r row + a) sin(r tau)``, each row's angles turned by ``a`` are its
        coefficients on the tap basis.  One matmul per window group gives the
        numerators (a group's rows are fixed by the grid, whatever block
        builds them), which are divided by ``v`` or ``v + D`` and tapered at
        ``v``.  Entries within the singular radius of zero, widened by ``1 /
        |sin phi|``, take product form.
        """
        period = self.sample_set.sample_period
        half = self.num_taps // 2
        tap = np.arange(-half, half + 1) * period
        basis = np.ascontiguousarray(kernel.tap_basis(tap).T)
        sin_phi, cot_phi = (array[0] for array in kernel.phases(np.array([delay])))
        first_row = block[0][0].start
        row = self.row[first_row : block[-1][0].stop]
        row_cos, row_sin = (table.T for table in kernel.row_tables(row))
        gain = kernel.gains / np.repeat(sin_phi, 2)
        sign_phi = np.repeat(delay * kernel.phase_rates, 2) * np.tile([1.0, -1.0], sin_phi.size)
        # (on-grid, delayed) x rows x 2 R, C-ordered: each group's slice is then
        # laid out as it would be in a block of its own.
        turn = np.stack([sign_phi, delay * kernel.delay_rates])[:, None]
        weight = np.stack([-gain, gain])[:, None]
        cos_turn, sin_turn = weight * np.cos(turn), weight * np.sin(turn)
        turned_cos = row_cos * cos_turn - row_sin * sin_turn
        turned_sin = row_sin * cos_turn + row_cos * sin_turn
        coefficients = np.ascontiguousarray(np.concatenate([turned_cos, -turned_sin], axis=2))
        v = row[:, None] + tap
        kernels = np.empty((2,) + v.shape)
        for rows, _, _ in block:
            local = slice(rows.start - first_row, rows.stop - first_row)
            np.matmul(coefficients[:, local], basis, out=kernels[:, local])
        taper = evaluate_taper(v / (half * period + period))
        # The coefficients carry 1 / sin(phi), and so does the quotient's
        # rounding error near x = 0, where the kernel stays of order one.
        radius = kernel.singular_radius / np.abs(sin_phi).min()
        # In product form a term is cos_part - cot(phi) sin_part at x; on-grid
        # x = -v, so at v the sine part changes sign.  (v + D is formed before
        # the singular entries of v are overwritten.)
        for values, argument, cot in ((kernels[0], v, -cot_phi), (kernels[1], v + delay, cot_phi)):
            flat = argument.reshape(-1)
            index = np.flatnonzero(np.abs(flat) < radius)
            if index.size:
                parts = kernel.product_form(flat[index])
                exact = sum(cos_part - c * sin_part for c, (cos_part, sin_part) in zip(cot, parts))
                flat[index] = np.inf
            values /= argument
            if index.size:
                values.reshape(-1)[index] = exact
        kernels *= taper
        return kernels


class _PlanStructure:
    """Sample-independent half of a :class:`ReconstructionPlan`.

    Everything here depends only on the acquisition *geometry* (start time,
    period, record length, band) and the evaluation grid — not on the sample
    values or the candidate delay: where each point's taps lie, the Kaiser
    taper and the Eq. (2) kernel's tap and row parts.  Fingerprint-adjacent
    campaign scenarios share all of it, which is what
    :class:`PlanStructureCache` exploits.

    Entry ``(n, j)`` of the kernel arguments ``v = nT - t`` and of the taper
    is point ``n``'s centre-sample offset ``row[n]`` plus tap ``j``'s offset
    ``tau_j = (j - nw/2) T``.  In the factored kernel (:class:`_FactoredKernel`)
    a weighted tap sum over a kernel argument ``v + D`` needs ``sum_j W cos(r
    v)`` and ``sum_j W sin(r v)`` at its rates ``r``, with ``W`` the weights
    over ``v + D`` (:meth:`rotated_sums`): one matmul against the tap
    ``basis``, rotated by each point's row angle through the ``(R, points)``
    tables ``row_cos`` and ``row_sin``.  Entries within the kernel's
    ``singular_radius`` of ``v + D = 0`` cannot be divided by:
    :meth:`arguments` finds them from ``sorted_v`` and they are evaluated in
    product form.

    Plans gather each point's samples around its ``centre`` sample and give
    the taps off the record zero weight.
    """

    __slots__ = (
        "times",
        "num_taps",
        "centre",
        "taper",
        "kernel",
        "basis",
        "row_cos",
        "row_sin",
        "v",
        "sorted_v",
        "num_elements",
    )

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        times: np.ndarray,
        num_taps: int,
    ) -> None:
        period = sample_set.sample_period
        start = sample_set.start_time
        half = num_taps // 2
        centre = np.round((times - start) / period).astype(np.int64)

        # v = nT - t = row + tap: each point's centre sample minus the point,
        # plus each tap's offset (j - nw/2) T from the centre.  The on-grid
        # kernel argument is -v, the delayed-channel argument v + D_hat for
        # any candidate delay D_hat.  Taps off the record keep their
        # unclipped argument; plans give them zero weight.
        row = (start + centre * period) - times
        tap = np.arange(-half, half + 1) * period
        v = row[:, None] + tap
        taper = evaluate_taper(v / (half * period + period))

        self.kernel = _FactoredKernel(sample_set.band)
        self.basis = self.kernel.tap_basis(tap)
        self.row_cos, self.row_sin = self.kernel.row_tables(row)
        self.times = times
        self.num_taps = num_taps
        self.centre = centre
        self.taper = taper
        self.v = v
        # One sorted copy of v finds, for every delay of a batch, whether any
        # entry sits within the singular radius of v + D = 0 without scanning
        # the (delays, rows, taps) block.
        self.sorted_v = np.sort(v, axis=None)
        held = [times, centre, taper, self.basis, self.row_cos, self.row_sin, v, self.sorted_v]
        self.num_elements = sum(array.size for array in held)

    def arguments(self, delays: np.ndarray):
        """``v + D`` of each delay, ``(m, rows, taps)``, and the entries a quotient cannot take.

        Entries within the singular radius of ``v + D = 0`` cannot be
        divided by: they are set to infinity (so a weight over them is zero
        and no inf or NaN reaches a contraction) and returned as ``None`` or
        ``(delay, row, tap, v + D)`` index and argument arrays, for
        :meth:`_FactoredKernel.product_form`.  Each delay's entries depend
        on that delay alone, not on the batch it shares.
        """
        radius = self.kernel.singular_radius
        arguments = self.v + delays[:, None, None]
        lower = np.searchsorted(self.sorted_v, -delays - radius, "left")
        upper = np.searchsorted(self.sorted_v, -delays + radius, "right")
        singular = None
        if np.any(upper > lower):
            # Rare: a point lies within ~1e-6 / envelope of a sample instant.
            # The closed-interval bounds overcount; this scan decides.
            flat = arguments.reshape(-1)
            index = np.flatnonzero(np.abs(flat) < radius)
            if index.size:
                delay, entry = np.divmod(index, self.v.size)
                singular = (delay, *np.unravel_index(entry, self.v.shape), flat[index])
                flat[index] = np.inf
        return arguments, singular

    def rotated_sums(self, weighted: np.ndarray):
        """``sum_j W cos(r v)`` and ``sum_j W sin(r v)`` of ``(m, rows, taps)`` weights: ``(m, R, rows)`` each.

        One fixed-shape matmul per leading index against the tap basis, so
        a delay's sums never depend on the delays that share its batch, then
        each point's rotation by its row angle ``r row``.
        """
        num_rates = self.kernel.rates.size
        sums = np.empty(weighted.shape[:2] + (2 * num_rates,))
        for index, block in enumerate(weighted):
            np.matmul(block, self.basis, out=sums[index])
        # Rate-major, so each product below runs over a whole row of points
        # rather than over R values at a time.
        sums = np.ascontiguousarray(sums.transpose(0, 2, 1))
        tap_cos, tap_sin = sums[:, :num_rates], sums[:, num_rates:]
        cosines = self.row_cos * tap_cos
        cosines -= self.row_sin * tap_sin
        sines = self.row_sin * tap_cos
        sines += self.row_cos * tap_sin
        return cosines, sines


def _structure_key(sample_set: NonuniformSampleSet, times: np.ndarray, num_taps: int) -> tuple:
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
    trigonometry of each cost grid, the rest of the group reuse them when
    they draw the same instants.  Eviction is sized in the values each
    structure holds (its ``num_elements``, ~3 per point and tap) rather
    than entry count, because grids differ in size.  The most recent entry
    is never evicted, so an oversized structure still serves the group
    being executed.
    """

    #: Retained-value budget (16 MB of float64).  One paper-default ``run()``
    #: builds ~0.12M values of structures: two 300-point calibration grids at
    #: 58k each.
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
    then costs a handful of scalar trigonometric calls, one ``(points,
    taps)`` division and one matmul.

    The plan gathers each point's tap window, masks the taps off the record
    and folds the taper into the samples of both channels.  The on-grid
    channel's tap sums are computed once, at construction, as two
    delay-free dot products per term (:meth:`_on_grid_terms`); the delayed
    channel's once per candidate delay: its weighted samples over ``v + D``,
    one ``(points, taps) @ (taps, 4 terms)`` matmul against the structure's
    tap basis, then a turn by the row tables and the delay's scalars (see
    :class:`_PlanStructure`).  Each delay of a batch gets its own matmul and
    the rates are summed in a fixed order, so a delay's row is the same
    whatever delays share its batch.  A plan holds ``(points, taps)``
    arrays: one delay over a dense uniform grid goes through
    :meth:`NonuniformReconstructor.evaluate`'s render instead.

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

        structure = None
        if structure_cache is not None:
            if not isinstance(structure_cache, PlanStructureCache):
                raise ValidationError("structure_cache must be a PlanStructureCache")
            key = _structure_key(sample_set, times, num_taps)
            structure = structure_cache.lookup(key)
        if structure is None:
            structure = _PlanStructure(sample_set, times, num_taps)
            if structure_cache is not None:
                structure_cache.store(key, structure)
        self._structure = structure
        half = num_taps // 2
        tap_index = structure.centre[:, None] + np.arange(-half, half + 1)
        valid = (tap_index >= 0) & (tap_index < len(sample_set))
        clipped = np.clip(tap_index, 0, len(sample_set) - 1)
        weight = np.where(valid, structure.taper, 0.0)
        self._weighted_delayed = sample_set.delayed[clipped] * weight
        self._on_grid_dots = self._on_grid_terms(sample_set.on_grid[clipped] * weight)

    def _on_grid_terms(self, weighted: np.ndarray):
        """Each term's on-grid tap sums ``(cos part, sin part)``, ``(points,)`` each.

        At ``-v`` term ``t`` is ``scale sinc(envelope v) (cos(pi oscillation v) +
        cot(phi) sin(pi oscillation v))``, and by product to sum the two
        parts are ``c_t (sin(P_t v) + sin(Q_t v)) / v`` and ``c_t (cos(Q_t v) -
        cos(P_t v)) / v``: one :meth:`_PlanStructure.rotated_sums` of the
        weights over ``v`` gives both, and a candidate delay only weighs the
        second by ``cot(phi)``.  Points on a sample instant take their
        ``v = 0`` tap in product form.
        """
        structure = self._structure
        kernel = structure.kernel
        arguments, singular = structure.arguments(np.zeros(1))
        cosines, sines = structure.rotated_sums(np.divide(weighted, arguments, out=arguments))
        dots = []
        for p in range(0, kernel.rates.size, 2):
            # Rates p and p + 1 are a term's P and Q; gain p is its c_t.
            gain, q = kernel.gains[p], p + 1
            dots.append((gain * (sines[0, p] + sines[0, q]), gain * (cosines[0, q] - cosines[0, p])))
        if singular is not None:
            _, row, tap, argument = singular
            for (dot_cos, dot_sin), (cos_part, sin_part) in zip(dots, kernel.product_form(argument)):
                np.add.at(dot_cos, row, weighted[row, tap] * cos_part)
                np.add.at(dot_sin, row, weighted[row, tap] * sin_part)
        return tuple(dots)

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
    def structure(self) -> _PlanStructure:
        """The (possibly shared) sample-independent half of this plan.

        Plans built through one :class:`PlanStructureCache` over the same
        acquisition geometry and bitwise-identical grid return the *same
        object* here.
        """
        return self._structure

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

        Every step is elementwise, sums the rates in a fixed order or is one
        matmul per delay, so a delay's row never depends on the other delays
        of its batch.
        """
        structure = self._structure
        kernel = structure.kernel
        sin_phi, cot_phi = kernel.phases(delays)
        on_grid_total = None
        for cot, (dot_cos, dot_sin) in zip(cot_phi.T, self._on_grid_dots):
            on_grid = dot_cos + cot[:, None] * dot_sin
            if on_grid_total is None:
                on_grid_total = on_grid
            else:
                on_grid_total += on_grid
        arguments, singular = structure.arguments(delays)
        weighted = np.divide(self._weighted_delayed, arguments, out=arguments)
        cosines, sines = structure.rotated_sums(weighted)
        # cos(r (v + D) - sign phi) = cos(r v) cos(beta) - sin(r v) sin(beta)
        # with beta = r D - sign phi, each rate weighted by sign c_t / sin(phi).
        beta = delays[:, None] * kernel.delay_rates
        gain = kernel.gains / np.repeat(sin_phi, 2, axis=1)
        cosines *= (gain * np.cos(beta))[:, :, None]
        sines *= (gain * np.sin(beta))[:, :, None]
        cosines -= sines
        delayed = cosines[:, 0] + cosines[:, 1]
        for rate in range(2, kernel.rates.size):
            delayed += cosines[:, rate]
        if singular is not None:
            delay, row, tap, argument = singular
            exact = sum(
                cos_part - cot_phi[delay, term] * sin_part
                for term, (cos_part, sin_part) in enumerate(kernel.product_form(argument))
            )
            np.add.at(delayed, (delay, row), self._weighted_delayed[row, tap] * exact)
        return on_grid_total + delayed

    def _validate_delay(self, delay: float) -> float:
        """Reject delays Eq. (3) forbids, mirroring the direct evaluator."""
        delay = check_positive(delay, "assumed_delay")
        return check_delay(self._samples.band, delay)


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

    Binds one assumed delay and accepts arbitrary time grids.  Each
    :meth:`evaluate` takes one of two routes: a dense uniform grid (every
    measurement render) goes through a render that builds its kernels at
    the assumed delay directly and keeps nothing; any other grid, such as
    random instants, through a :class:`ReconstructionPlan` evaluated once.

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
    """

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        assumed_delay: float | None = None,
        num_taps: int = 60,
    ) -> None:
        if not isinstance(sample_set, NonuniformSampleSet):
            raise ValidationError("sample_set must be a NonuniformSampleSet")
        self._samples = sample_set
        self._assumed_delay = (
            sample_set.delay if assumed_delay is None else check_positive(assumed_delay, "assumed_delay")
        )
        self._num_taps = check_integer(num_taps, "num_taps", minimum=2)
        if self._num_taps % 2 != 0:
            raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
        self._kernel = KohlenbergKernel(sample_set.band, self._assumed_delay)

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
        """A freshly compiled plan for ``times`` under this reconstructor's settings."""
        return ReconstructionPlan(self._samples, times, num_taps=self._num_taps)

    def evaluate(self, times) -> np.ndarray:
        """Evaluate the reconstructed waveform at arbitrary time instants.

        Implements Eq. (6): for each requested time ``t`` the sum runs over
        the ``nw + 1`` sample pairs nearest to ``t``, each contribution being
        ``f(nT) * s(t - nT) + f(nT + D_hat) * s(nT + D_hat - t)``, windowed
        across the truncated support.  A dense uniform grid is rendered
        directly at ``D_hat`` (:class:`_DenseRender`); any other grid
        through :meth:`plan_for`.  The assumed delay was validated at
        construction, so neither route re-checks it.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        render = _DenseRender.of(self._samples, times, self._num_taps) if times.ndim == 1 else None
        if render is not None:
            return render.evaluate(self._assumed_delay)
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

