"""Generated-input properties of the reconstruction kernels.

For any band placement, record length, even tap count and set of
delays that :func:`~repro.sampling.nonuniform.check_delay` accepts:

* :meth:`ReconstructionPlan.evaluate_many` rows equal looped
  :meth:`ReconstructionPlan.evaluate` bit for bit;
* :func:`evaluate_stacked` rows equal per-plan ``evaluate`` bit for bit;
* every plan, and the dense render of every uniform grid that takes it,
  agrees with :func:`reference_evaluate` to 1e-9;
* the dense render of a uniform grid is within 1e-10 of the samples' full
  scale of the per-point plan over the same grid permuted;
* a render's rows never depend on the rows that share their block: a
  render of one window group per block equals a render in budget-sized
  blocks bit for bit;
* a render keeps no ``(points, nw + 1)`` array;
* a row never depends on the delays that share its batch: row 0 of
  ``evaluate_many([d, x])`` is ``evaluate(d)`` bit for bit for generated
  companion delays ``x``;
* every value is finite;
* a plan's tap basis and row tables, composed by angle addition, agree with
  direct ``np.sin`` and ``np.cos`` of the kernel angles ``r (row + tau)`` to
  within a few ulp of the angle;
* a paper-sized LMS cost plan and its structure hold at most four arrays of
  ``points * (nw + 1)`` values or more;
* :func:`_kernel_rows`'s one pass over bounded keys groups a grid's points
  exactly as sorting the keys with ``np.unique`` does;
* a kernel term whose envelope nearly vanishes (2 f_l / B = 5 + 1e-8) keeps
  the singular radius below a sample period.

Band positions ``2 f_l / B`` are integers, floats in ``[1, 30]`` or ``5 +
1e-8``.  Half the generated grids are uniform, ``start + m T + arange(n) / fs`` with
``fs = B p / q``: most take the reconstructor's dense render.  Even ``p``
with an aligned start puts some points on half-sample ties; ``m`` starts the
grid up to a kernel span before the record, and half the grids cover the
record and run a kernel span past its far end, so some windows lie partly
or wholly off the record.  ``q`` is either at most 16 or coarser than the
kernel (``q > nw + 1``, windows that never overlap), and some grids are
reversed: a decreasing grid takes a plan.  Half of the grids, uniform or
random, put one point on a delayed-sample instant ``t = nT + D``, give or
take a few ulp, for the first delay only, and half of the random grids put
one point on an on-grid sample instant ``t = nT``, again give or take a few
ulp.  Those entries of ``v + D`` and ``v`` sit at the sinc's removable
singularity and are evaluated in product form; no other entry or row may
change by a bit.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bist.measurements import render_uniform
from repro.calibration import SkewCostFunction
from repro.errors import DelayConstraintError
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    NonuniformSampleSet,
    PlanStructureCache,
    ReconstructionPlan,
    evaluate_stacked,
    reference_evaluate,
)
from repro.sampling.nonuniform import check_delay, delay_upper_bound
from repro.sampling import reconstruction
from repro.sampling.reconstruction import _DenseRender, _kernel_rows
from repro.signals import multitone_in_band


#: A band position 2 f_l / B a hair above an integer: its second kernel
#: term's scale and envelope are ~1e-8 of 1 and of B.
NEAR_INTEGER = 5.0 + 1e-8


def accepted(band, delay) -> bool:
    try:
        check_delay(band, delay)
    except DelayConstraintError:
        return False
    return True


@st.composite
def kernel_cases(draw, uniform=None, row_shared=False):
    """Plans sharing one structure, one delay each, over one generated grid.

    ``row_shared`` draws only increasing, unjittered uniform grids: those
    take the dense render whenever they have fewer kernel rows than points.
    """
    bandwidth = draw(st.floats(10e6, 100e6))
    # 2 f_l / B; integer positions exercise the single-term kernel, and
    # 5 + 1e-8 a two-term kernel whose second term nearly vanishes.
    position = draw(
        st.one_of(st.integers(1, 30).map(float), st.floats(1.0, 30.0), st.just(NEAR_INTEGER))
    )
    band = BandpassBand(position * bandwidth / 2.0, (position + 2.0) * bandwidth / 2.0)
    bound = delay_upper_bound(band)
    fractions = draw(st.lists(st.floats(0.02, 1.98), min_size=2, max_size=5, unique=True))
    delays = np.array(fractions) * bound
    assume(all(accepted(band, delay) for delay in delays))
    num_taps = 2 * draw(st.integers(1, 20))
    num_samples = draw(st.integers(4, 160))
    period = 1.0 / bandwidth
    start = draw(st.floats(-1e-6, 1e-6))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A delayed-sample instant nT + D of the first delay, a few ulp off.
    planted = None
    if draw(st.booleans()):
        planted = start + draw(st.integers(0, num_samples - 1)) * period + delays[0]
        planted += draw(st.integers(-3, 3)) * np.spacing(planted)
        assume(np.all(np.abs(delays[1:] - delays[0]) > 1e-6 * bound))
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform or row_shared:
        # p points per q sample periods; an integer m aligns the grid with
        # the samples, which puts points on half-sample ties when p is even.
        p = draw(st.integers(1, 16))
        q = draw(st.one_of(st.integers(1, 16), st.integers(num_taps + 2, num_taps + 8)))
        step = 1.0 / (bandwidth * p / q)
        span = num_taps + 3
        m = draw(
            st.one_of(st.integers(-span, num_samples + 3), st.floats(-span, num_samples + 3.0))
        )
        count = draw(st.integers(3, 90))
        if draw(st.booleans()):
            # Run a kernel span past the far end of the record.
            count = max(count, math.ceil((num_samples + span - m) * p / q))
        if planted is None:
            times = start + m * period + np.arange(count) * step
        else:
            # Point i lands exactly on the planted instant.
            times = planted + (np.arange(count) - draw(st.integers(0, count - 1))) * step
        if not row_shared and draw(st.booleans()):
            times = times[::-1]
        if not row_shared and draw(st.booleans()):
            # Jitter keeps every centre sample but not the shared offsets.
            times = times + 1e-6 * period * rng.standard_normal(times.size)
    else:
        times = start + period * rng.uniform(-3.0, num_samples + 3.0, draw(st.integers(1, 30)))
        if planted is not None:
            times = np.insert(times, draw(st.integers(0, times.size)), planted)
        if draw(st.booleans()):
            # An on-grid sample instant nT, a few ulp off.
            on_grid = start + draw(st.integers(0, num_samples - 1)) * period
            on_grid += draw(st.integers(-3, 3)) * np.spacing(on_grid)
            times = np.insert(times, draw(st.integers(0, times.size)), on_grid)

    geometry = NonuniformSampleSet(
        on_grid=np.zeros(num_samples),
        delayed=np.zeros(num_samples),
        sample_period=period,
        delay=delays[0],
        start_time=start,
        band=band,
    )
    cache = PlanStructureCache()
    plans = [
        ReconstructionPlan(
            geometry.with_channels(
                rng.standard_normal(num_samples), rng.standard_normal(num_samples)
            ),
            times,
            num_taps=num_taps,
            structure_cache=cache,
        )
        for _ in delays
    ]
    return plans, delays


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_evaluate_many_rows_equal_looped_evaluate(case):
    plans, delays = case
    plan = plans[0]
    looped = np.stack([plan.evaluate(delay) for delay in delays])
    assert np.array_equal(plan.evaluate_many(delays), looped)


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_evaluate_stacked_rows_equal_per_plan_evaluate(case):
    plans, delays = case
    assert all(plan.structure is plans[0].structure for plan in plans)
    per_plan = np.stack([plan.evaluate(delay) for plan, delay in zip(plans, delays)])
    assert np.array_equal(evaluate_stacked(plans, delays), per_plan)


@settings(max_examples=40, deadline=None)
@given(st.one_of(kernel_cases(), kernel_cases(row_shared=True)))
def test_plans_agree_with_reference(case):
    plans, delays = case
    for plan, delay in zip(plans, delays):
        expected = reference_evaluate(
            plan.sample_set,
            plan.evaluation_times,
            delay,
            num_taps=plan.num_taps,
        )
        values = plan.evaluate(delay)
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.one_of(kernel_cases(), kernel_cases(row_shared=True)), st.data())
def test_row_is_independent_of_its_batch(case, data):
    plans, delays = case
    plan = plans[0]
    band = plan.sample_set.band
    fractions = data.draw(st.lists(st.floats(0.02, 1.98), min_size=1, max_size=3))
    companions = [f * delay_upper_bound(band) for f in fractions]
    companions = [x for x in companions if accepted(band, x)]
    assume(companions)
    alone = plan.evaluate(delays[0])
    for companion in companions:
        rows = plan.evaluate_many([delays[0], companion])
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows[0], alone)
        assert np.array_equal(rows[1], plan.evaluate(companion))


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_tap_basis_and_row_tables_match_direct_trigonometry(case):
    # Each kernel angle r (row + tau) is a point's row angle plus a tap's:
    # the row tables hold cos and sin of the first, the tap basis of the
    # second, and angle addition composes them.
    plans, _ = case
    plan = plans[0]
    structure = plan.structure
    samples = plan.sample_set
    period, start = samples.sample_period, samples.start_time
    half = plan.num_taps // 2
    times = plan.evaluation_times
    row = (start + np.round((times - start) / period) * period) - times
    tap = np.arange(-half, half + 1) * period
    num_rates = structure.kernel.rates.size
    assert structure.basis.shape == (tap.size, 2 * num_rates)
    assert structure.row_cos.shape == structure.row_sin.shape == (num_rates, times.size)
    for index, rate in enumerate(structure.kernel.rates):
        angle = rate * (row[:, None] + tap)
        # A few ulp of the largest angle the two routes round.
        largest = np.maximum(np.abs(angle), np.abs(rate * row)[:, None] + np.abs(rate * tap))
        bound = 4.0 * np.spacing(largest) + 4.0 * np.finfo(float).eps
        tap_cos, tap_sin = structure.basis[:, index], structure.basis[:, num_rates + index]
        row_cos, row_sin = structure.row_cos[index, :, None], structure.row_sin[index, :, None]
        assert np.all(np.abs(row_sin * tap_cos + row_cos * tap_sin - np.sin(angle)) <= bound)
        assert np.all(np.abs(row_cos * tap_cos - row_sin * tap_sin - np.cos(angle)) <= bound)


def test_cost_plan_holds_no_per_tap_kernel_tables(paper_band):
    # A paper-default LMS cost plan: 300 instants, nw = 60, 400 and 200
    # sample pairs.  It keeps v, its sorted copy, the taper and the weighted
    # delayed samples at points x (nw + 1); everything else it holds is
    # per point, per tap or per sample.
    tone = multitone_in_band(0.995e9, 1.005e9, 5, amplitude=0.3, seed=3)
    fast = IdealNonuniformSampler(paper_band, delay=180e-12).acquire(tone, num_samples=400)
    slow = IdealNonuniformSampler(
        paper_band, delay=180e-12, sample_rate=paper_band.bandwidth / 2.0
    ).acquire(tone, num_samples=200)
    cost = SkewCostFunction(fast, slow, seed=1)
    cost.evaluate_many([170e-12, 190e-12])
    for plan in (cost.plan_fast, cost.plan_slow):
        size = plan.evaluation_times.size * (plan.num_taps + 1)
        held = [array for array in retained_arrays(plan) if array.size >= size]
        assert len(held) <= 4


def test_a_vanishing_kernel_term_keeps_the_singular_radius_small():
    # At 2 f_l / B = 5 + 1e-8 and B = 90 MHz the second term's envelope is
    # ~0.9 Hz.  A radius sized by it spans ~100 T, and every entry of every
    # plan and render goes through product form.  That term's gain, like
    # every term's, is 1 / (2 pi B), so its quotient needs no wider radius.
    bandwidth = 90e6
    period = 1.0 / bandwidth
    band = BandpassBand(NEAR_INTEGER * bandwidth / 2.0, (NEAR_INTEGER + 2.0) * bandwidth / 2.0)
    delay = 0.37 * delay_upper_bound(band)
    rng = np.random.default_rng(5)
    samples = NonuniformSampleSet(
        on_grid=rng.standard_normal(200),
        delayed=rng.standard_normal(200),
        sample_period=period,
        delay=delay,
        start_time=0.0,
        band=band,
    )
    reconstructor = NonuniformReconstructor(samples)
    low, high = reconstructor.valid_time_range()
    instants = np.sort(rng.uniform(low, high, 300))
    kernel = ReconstructionPlan(samples, instants).structure.kernel
    assert len(kernel.terms) == 2
    assert kernel.singular_radius < period
    # 14 points a sample period: a render, with points on sample instants.
    grid, rendered, _ = render_uniform(reconstructor, low, high, 14.0 * bandwidth)
    assert _DenseRender.of(samples, grid, reconstructor.num_taps) is not None
    for times, values in ((instants, reconstructor.evaluate(instants)), (grid, rendered)):
        expected = reference_evaluate(samples, times, delay)
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-9)


def unique_kernel_rows(times, centre, start, period):
    """:func:`_kernel_rows` with ``np.unique`` sorting its keys: the reference."""
    num_times = times.size
    if num_times < 2:
        return None
    ratio = (times[-1] - times[0]) / (num_times - 1) / period
    if not abs(ratio) < 2**32:
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


def assert_kernel_rows_match_reference(times, start, period):
    centre = np.round((times - start) / period).astype(np.int64)
    rows = _kernel_rows(times, centre, start, period)
    expected = unique_kernel_rows(times, centre, start, period)
    if expected is None:
        assert rows is None
    else:
        first, row_index, p, q = rows
        assert np.array_equal(first, expected[0])
        assert np.array_equal(row_index, expected[1])
        assert (p, q) == expected[2:]


@settings(max_examples=60, deadline=None)
@given(st.one_of(kernel_cases(row_shared=True), kernel_cases(uniform=True)))
def test_kernel_rows_equal_the_sorting_reference(case):
    plans, _ = case
    samples = plans[0].sample_set
    assert_kernel_rows_match_reference(
        plans[0].evaluation_times, samples.start_time, samples.sample_period
    )


def dense_render(plan):
    """The reconstructor's render of ``plan``'s grid, or ``None`` when it takes a plan."""
    return _DenseRender.of(plan.sample_set, plan.evaluation_times, plan.num_taps)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(row_shared=True))
def test_render_agrees_with_reference(case):
    plans, delays = case
    plan = plans[0]
    render = dense_render(plan)
    assume(render is not None)
    for delay in delays:
        expected = reference_evaluate(
            plan.sample_set, plan.evaluation_times, delay, num_taps=plan.num_taps
        )
        values = render.evaluate(delay)
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(row_shared=True))
def test_render_rows_are_independent_of_their_block(case):
    # Each kernel value depends on its row and tap alone, and each window
    # group is one matmul whatever block built it.
    plans, delays = case
    render = dense_render(plans[0])
    assume(render is not None)
    for delay in delays:
        blocked = render.evaluate(delay)
        with mock.patch.object(reconstruction, "_RENDER_ELEMENT_BUDGET", 1):
            assert np.array_equal(render.evaluate(delay), blocked)


def retained_arrays(item):
    """Every NumPy array an object holds, through its attributes and slots."""
    found, pending, seen = [], [item], set()
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif type(item).__module__.startswith("repro."):
            names = list(getattr(item, "__dict__", ()))
            names += [name for cls in type(item).__mro__ for name in getattr(cls, "__slots__", ())]
            pending.extend(getattr(item, name) for name in names if hasattr(item, name))
    return found


@settings(max_examples=40, deadline=None)
@given(kernel_cases(row_shared=True))
def test_render_layout(case):
    plans, delays = case
    plan = plans[0]
    render = dense_render(plan)
    assume(render is not None)
    # A grid period spans q samples, so window bases take at most q + 2
    # values, the extra two from half-sample ties; each is one group.
    bases = [render.row_base[rows.start] for rows, _, _ in render.groups]
    assert np.all(np.diff(bases) > 0)
    assert len(render.groups) <= render.step[1] + 2
    # One kernel row per distinct offset, fewer than the points; after a
    # render, every array it holds is point-, row- or record-sized and 1-D.
    num_points = plan.evaluation_times.size
    assert render.row.size < num_points
    render.evaluate(delays[0])
    for array in retained_arrays(render):
        assert array.ndim < 2 or array.size < num_points * (plan.num_taps + 1)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(uniform=True), st.randoms(use_true_random=False))
def test_uniform_grid_equals_permuted_grid(case, random):
    # The reconstructor renders a uniform grid at the delay directly;
    # permuted, the grid takes a per-point plan.  A decreasing or jittered
    # grid takes the plan both ways and must match exactly.
    plans, delays = case
    plan = plans[0]
    order = list(range(plan.evaluation_times.size))
    random.shuffle(order)
    order = np.array(order)
    permuted = ReconstructionPlan(
        plan.sample_set, plan.evaluation_times[order], num_taps=plan.num_taps
    )
    expected = np.empty(order.size)
    expected[order] = permuted.evaluate(delays[0])
    reconstructor = NonuniformReconstructor(
        plan.sample_set, assumed_delay=delays[0], num_taps=plan.num_taps
    )
    # Full scale of the samples: a render far outside the record sums only
    # edge taps and is itself rounding noise, so its own peak is no scale.
    # The two routes round their angle-addition sines differently; over 400
    # generated grids they differed by up to 1.4e-11 of full scale, each
    # within 1.6e-11 of the oracle.
    samples = plan.sample_set
    full_scale = max(np.max(np.abs(samples.on_grid)), np.max(np.abs(samples.delayed)))
    np.testing.assert_allclose(
        reconstructor.evaluate(plan.evaluation_times), expected, rtol=0.0, atol=1e-10 * full_scale
    )


def test_paper_dense_grids_share_kernel_rows(paper_band):
    # 400 samples at B = 90 MHz; the spectrum grid at 4 f_high = 4.18 GHz is
    # 418 points per 9 sample periods, the EVM grid at 48 B = 4.32 GHz is 48
    # per period.  Both start on a sample, so one phase of each sits on a
    # half-sample tie and splits into two rows.
    samples = NonuniformSampleSet(
        on_grid=np.ones(400),
        delayed=np.ones(400),
        sample_period=1.0 / paper_band.bandwidth,
        delay=180e-12,
        start_time=0.0,
        band=paper_band,
    )
    reconstructor = NonuniformReconstructor(samples)
    low, high = reconstructor.valid_time_range()
    # The rows fall into groups by window base: at most q + 2 of them.  The
    # render builds each grid's kernels in one block.
    grids = ((None, 419, (418, 9), 10), (48 * paper_band.bandwidth, 49, (48, 1), 2))
    for rate, rows, step, groups in grids:
        times, _, _ = render_uniform(reconstructor, low, high, rate)
        assert_kernel_rows_match_reference(times, samples.start_time, samples.sample_period)
        render = _DenseRender.of(samples, times, reconstructor.num_taps)
        assert render.row.shape == (rows,)
        assert render.point_index.shape == times.shape
        assert render.step == step
        assert len(render.groups) == groups
        assert len(list(render._blocks())) == 1
