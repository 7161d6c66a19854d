"""Generated-input properties of the reconstruction kernels.

For any band placement, record length, even tap count, window and set of
delays that :func:`~repro.sampling.nonuniform.check_delay` accepts:

* :meth:`ReconstructionPlan.evaluate_many` rows equal looped
  :meth:`ReconstructionPlan.evaluate` bit for bit, on the polyphase route
  of a row-shared plan too;
* :func:`evaluate_stacked` rows equal per-plan ``evaluate`` bit for bit;
* every plan agrees with :func:`reference_evaluate` to 1e-9;
* a uniform grid evaluates to within 1e-10 of the samples' full scale of
  the same grid permuted, which takes one row per point;
* a row-shared plan retains no ``(points, nw + 1)`` array;
* a row never depends on the delays that share its batch: row 0 of
  ``evaluate_many([d, x])`` is ``evaluate(d)`` bit for bit for generated
  companion delays ``x``, on both routes;
* every value is finite;
* the angle-addition trigonometry tables agree with direct ``np.sin`` and
  ``np.cos`` of the kernel arguments to within a few ulp of the angle.

Half the generated grids are uniform, ``start + m T + arange(n) / fs`` with
``fs = B p / q``: most take the shared-row, polyphase route of the plan
structure.  Even ``p`` with an aligned start puts some points on half-sample
ties; ``m`` starts the grid up to a kernel span before the record, and half
the grids cover the record and run a kernel span past its far end, so some
windows lie partly or wholly off the record.  ``q`` is either at most 16 or
coarser than the kernel (``q > nw + 1``, windows that never overlap), and
some grids are reversed: a decreasing grid takes one row per point.  Half
of the grids, uniform or random, put one point on a delayed-sample instant
``t = nT + D``, give or take a few ulp, for the first delay only.  That
entry of ``1 / (v + D)`` sits at the sinc's removable singularity and is
evaluated in product form; no other entry or row may change by a bit.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bist.measurements import render_uniform
from repro.errors import DelayConstraintError
from repro.sampling import (
    BandpassBand,
    NonuniformReconstructor,
    NonuniformSampleSet,
    PlanStructureCache,
    ReconstructionPlan,
    evaluate_stacked,
    reference_evaluate,
)
from repro.sampling.nonuniform import check_delay, delay_upper_bound
from repro.sampling.reconstruction import _angle_tables

WINDOWS = ["kaiser", "hann", "hamming", "blackman", "rectangular"]


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
    take the shared-row route whenever they have fewer rows than points.
    """
    bandwidth = draw(st.floats(10e6, 100e6))
    # 2 f_l / B; integer positions exercise the single-term kernel.
    position = draw(st.one_of(st.integers(1, 30).map(float), st.floats(1.0, 30.0)))
    band = BandpassBand(position * bandwidth / 2.0, (position + 2.0) * bandwidth / 2.0)
    bound = delay_upper_bound(band)
    fractions = draw(st.lists(st.floats(0.02, 1.98), min_size=2, max_size=5, unique=True))
    delays = np.array(fractions) * bound
    assume(all(accepted(band, delay) for delay in delays))
    num_taps = 2 * draw(st.integers(1, 20))
    window = draw(st.sampled_from(WINDOWS))
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
            window=window,
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
            window=plan.window,
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
def test_angle_tables_match_direct_trigonometry(case):
    # One row per point, as a per-point structure builds them: each row's
    # offset from its centre sample, plus each tap's offset from the centre.
    plans, _ = case
    plan = plans[0]
    samples = plan.sample_set
    period, start = samples.sample_period, samples.start_time
    half = plan.num_taps // 2
    times = plan.evaluation_times
    row = (start + np.round((times - start) / period) * period) - times
    tap = np.arange(-half, half + 1) * period
    for term in plan.structure.terms:
        for rate in (term.c_osc, np.pi * term.c_env):
            angle = rate * (row[:, None] + tap)
            # A few ulp of the largest angle the two routes round.
            largest = np.maximum(np.abs(angle), np.abs(rate * row)[:, None] + np.abs(rate * tap))
            bound = 4.0 * np.spacing(largest) + 4.0 * np.finfo(float).eps
            sine, cosine = _angle_tables(rate, row, tap)
            assert np.all(np.abs(sine - np.sin(angle)) <= bound)
            assert np.all(np.abs(cosine - np.cos(angle)) <= bound)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(row_shared=True))
def test_row_shared_plan_evaluate_many_equals_evaluate(case):
    plans, delays = case
    plan = plans[0]
    assume(plan.structure.groups is not None)
    looped = np.stack([plan.evaluate(delay) for delay in delays])
    assert np.array_equal(plan.evaluate_many(delays), looped)


def retained_arrays(plan):
    """Every NumPy array a plan holds, through its structure and kernel terms."""
    found, pending, seen = [], [plan], set()
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
def test_row_shared_plan_layout(case):
    plans, _ = case
    plan = plans[0]
    structure = plan.structure
    assume(structure.groups is not None)
    # A grid period spans q samples, so window bases take at most q + 2
    # values, the extra two from half-sample ties; each is one group.
    bases = [structure.row_base[rows.start] for rows, _, _ in structure.groups]
    assert np.all(np.diff(bases) > 0)
    assert len(structure.groups) <= structure.step[1] + 2
    # Tables have one row per distinct offset, fewer than the points; every
    # other array is point-, row- or record-sized and 1-D.
    num_points = plan.evaluation_times.size
    assert structure.taper.shape[0] < num_points
    for array in retained_arrays(plan):
        assert array.ndim < 2 or array.size < num_points * (plan.num_taps + 1)


@settings(max_examples=40, deadline=None)
@given(kernel_cases(uniform=True), st.randoms(use_true_random=False))
def test_uniform_grid_equals_permuted_grid(case, random):
    # Permuted, the grid takes one row per point: the direct route.  A
    # decreasing grid takes it too, and must match exactly.
    plans, delays = case
    plan = plans[0]
    order = list(range(plan.evaluation_times.size))
    random.shuffle(order)
    order = np.array(order)
    permuted = ReconstructionPlan(
        plan.sample_set, plan.evaluation_times[order], num_taps=plan.num_taps, window=plan.window
    )
    assume(isinstance(permuted.structure.row_index, slice))
    expected = np.empty(order.size)
    expected[order] = permuted.evaluate(delays[0])
    # Full scale of the samples: a render far outside the record sums only
    # edge taps and is itself rounding noise, so its own peak is no scale.
    samples = plan.sample_set
    full_scale = max(np.max(np.abs(samples.on_grid)), np.max(np.abs(samples.delayed)))
    np.testing.assert_allclose(
        plan.evaluate(delays[0]), expected, rtol=0.0, atol=1e-10 * full_scale
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
    # last column is num_elements before the kernel tables were factored by
    # angle addition (each term then kept its arguments and a sorted copy):
    # the structures now hold 431,174 and 93,841 values.
    grids = (
        (None, 419, (418, 9), 10, 482_292),
        (48 * paper_band.bandwidth, 49, (48, 1), 2, 99_819),
    )
    for rate, rows, step, groups, elements_before in grids:
        times, _, _ = render_uniform(reconstructor, low, high, rate)
        structure = reconstructor.plan_for(times).structure
        assert structure.taper.shape == (rows, reconstructor.num_taps + 1)
        assert structure.row_index.shape == times.shape
        assert structure.step == step
        assert len(structure.groups) == groups
        assert structure.num_elements <= elements_before
        for term in structure.terms:
            assert not hasattr(term, "env_argument") and not hasattr(term, "sorted_env")
