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
* a row-shared plan retains no ``(points, nw + 1)`` array.

Half the generated grids are uniform, ``start + m T + arange(n) / fs`` with
``fs = B p / q``: most take the shared-row, polyphase route of the plan
structure.  Even ``p`` with an aligned start puts some points on half-sample
ties; ``m`` starts the grid up to a kernel span before the record, and half
the grids cover the record and run a kernel span past its far end, so some
windows lie partly or wholly off the record.  ``q`` is either at most 16 or
coarser than the kernel (``q > nw + 1``, windows that never overlap), and
some grids are reversed: a decreasing grid takes one row per point.  Of the
random grids, half put one point exactly on a delayed-sample instant
``t = nT + D`` for the first delay only.  That row needs the Taylor branch of
the sinc, so the whole batch or stack runs the masked path, including rows
that alone would take the fast path; they must not change by a bit.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bist.measurements import uniform_render_grid
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
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform or row_shared:
        # p points per q sample periods; an integer m aligns the grid with
        # the samples, which puts points on half-sample ties when p is even.
        p = draw(st.integers(1, 16))
        q = draw(st.one_of(st.integers(1, 16), st.integers(num_taps + 2, num_taps + 8)))
        span = num_taps + 3
        m = draw(
            st.one_of(st.integers(-span, num_samples + 3), st.floats(-span, num_samples + 3.0))
        )
        count = draw(st.integers(3, 90))
        if draw(st.booleans()):
            # Run a kernel span past the far end of the record.
            count = max(count, math.ceil((num_samples + span - m) * p / q))
        times = start + m * period + np.arange(count) / (bandwidth * p / q)
        if not row_shared and draw(st.booleans()):
            times = times[::-1]
        if not row_shared and draw(st.booleans()):
            # Jitter keeps every centre sample but not the shared offsets.
            times = times + 1e-6 * period * rng.standard_normal(times.size)
    else:
        times = start + period * rng.uniform(-3.0, num_samples + 3.0, draw(st.integers(1, 30)))
        if draw(st.booleans()):
            # Exactly on the delayed-sample instant nT + D of the first row only.
            n = draw(st.integers(0, num_samples - 1))
            times = np.insert(times, draw(st.integers(0, times.size)), start + n * period + delays[0])
            assume(np.all(np.abs(delays[1:] - delays[0]) > 1e-6 * bound))

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
@given(kernel_cases())
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
        np.testing.assert_allclose(plan.evaluate(delay), expected, rtol=1e-9, atol=1e-9)


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
    # The rows fall into groups by window base: at most q + 2 of them.
    grids = ((None, 419, (418, 9), 10), (48 * paper_band.bandwidth, 49, (48, 1), 2))
    for rate, rows, step, groups in grids:
        times, _ = uniform_render_grid(reconstructor, low, high, rate)
        structure = reconstructor.plan_for(times).structure
        assert structure.taper.shape == (rows, reconstructor.num_taps + 1)
        assert structure.row_index.shape == times.shape
        assert structure.step == step
        assert len(structure.groups) == groups
