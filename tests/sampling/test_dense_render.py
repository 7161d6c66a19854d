"""The dense render: Eq. (6) at one delay over a uniform grid, nothing kept.

:meth:`NonuniformReconstructor.evaluate` renders every grid that
``_kernel_rows`` accepts by building the on-grid and delayed kernels at the
assumed delay from the cost plans' factored kernel, a block of window groups
at a time.  These tests
pin it to the oracle on the paper's two measurement grids, on the grid with
the most kernel rows of any shipped profile, on a grid through a
delayed-sample instant and on a grid with a row just off the sample
instants at a delay near a forbidden one; to the per-point plan on the
paper spectrum grid; and bound the memory a large render takes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bist.measurements import render_uniform
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    NonuniformSampleSet,
    ReconstructionPlan,
    reference_evaluate,
)
from repro.sampling.reconstruction import _DenseRender
from repro.transmitter import TransmitterConfig

DELAY = 180e-12
#: fs/B of the ``uhf-8psk-400mhz`` spectrum grid: 20,163 kernel rows in 82
#: window groups on the paper record.
UHF_8PSK_RATE_OVER_B = 20162 / 81
#: Points per ``reference_evaluate`` call; each point is evaluated alone.
REFERENCE_CHUNK = 8192


@pytest.fixture(scope="module")
def paper_record(paper_band, narrow_tone_signal):
    """The paper-default fast acquisition: 400 sample pairs at B = 90 MHz."""
    sampler = IdealNonuniformSampler(paper_band, delay=DELAY, sample_rate=paper_band.bandwidth)
    return sampler.acquire(narrow_tone_signal, num_samples=400)


@pytest.fixture(scope="module")
def reconstructor(paper_record):
    return NonuniformReconstructor(paper_record, assumed_delay=DELAY)


def evm_rate(band) -> float:
    """The single-carrier EVM render's rate: 4 f_high snapped to the envelope rate."""
    envelope_rate = TransmitterConfig.paper_default().envelope_sample_rate
    return float(np.ceil(4.0 * band.f_high / envelope_rate) * envelope_rate)


def oracle(sample_set, times):
    return np.concatenate(
        [
            reference_evaluate(sample_set, times[first : first + REFERENCE_CHUNK], DELAY)
            for first in range(0, times.size, REFERENCE_CHUNK)
        ]
    )


@pytest.mark.parametrize("grid", ["spectrum", "evm", "uhf-8psk"])
def test_render_matches_the_oracle(paper_record, reconstructor, grid):
    band = paper_record.band
    rate = {
        "spectrum": None,
        "evm": evm_rate(band),
        "uhf-8psk": UHF_8PSK_RATE_OVER_B * band.bandwidth,
    }[grid]
    low, high = reconstructor.valid_time_range()
    times, rendered, _ = render_uniform(reconstructor, low, high, rate)
    assert _DenseRender.of(paper_record, times, reconstructor.num_taps) is not None
    np.testing.assert_allclose(rendered, oracle(paper_record, times), rtol=0.0, atol=1e-9)


def test_render_through_a_delayed_sample_instant(paper_record, reconstructor):
    # Point 100 of the grid sits on the delayed sample 200 T + D, so one of
    # its delayed-channel kernel arguments v + D is zero to rounding: the
    # product form takes it.
    period = paper_record.sample_period
    planted = paper_record.start_time + 200 * period + DELAY
    step = 1.0 / (4.0 * paper_record.band.f_high)
    times = planted + (np.arange(2000) - 100) * step
    render = _DenseRender.of(paper_record, times, reconstructor.num_taps)
    assert render is not None
    half = reconstructor.num_taps // 2
    tap = np.arange(-half, half + 1) * period
    assert np.min(np.abs((render.row + DELAY)[:, None] + tap)) < 1e-6 / paper_record.band.f_high
    np.testing.assert_allclose(
        reconstructor.evaluate(times), oracle(paper_record, times), rtol=0.0, atol=1e-9
    )


@pytest.mark.parametrize("offset", [1.3e-6, 2.5e-6])
def test_render_near_a_forbidden_delay_through_a_near_sample_row(offset):
    # At 2 f_l / B = 1 and D = 0.499 T, phi = 2 pi B D is 0.2 % from pi and
    # sin(phi) = 0.006.  The factored kernel's coefficients carry
    # 1 / sin(phi), and so does its quotient's rounding error near x = 0,
    # where the kernel stays of order one: one row of this grid sits
    # `offset` T from the sample instants, just past the radius the plans
    # use; divided there, it read 4.4e-9 and 4.9e-9 from the oracle.
    bandwidth = 14817653.0
    period = 1.0 / bandwidth
    delay = 0.499 * period
    rng = np.random.default_rng(1)
    samples = NonuniformSampleSet(
        on_grid=rng.standard_normal(60),
        delayed=rng.standard_normal(60),
        sample_period=period,
        delay=delay,
        start_time=0.0,
        band=BandpassBand(bandwidth / 2.0, 1.5 * bandwidth),
    )
    times = (20.0 + offset) * period + np.arange(140) * period / 7.0
    render = _DenseRender.of(samples, times, 20)
    assert render is not None
    expected = reference_evaluate(samples, times, delay, num_taps=20)
    np.testing.assert_allclose(render.evaluate(delay), expected, rtol=0.0, atol=1e-9)


def test_render_equals_the_per_point_plan_permuted(paper_record, reconstructor):
    # Permuted, the spectrum grid fails the uniform-grid checks and takes a
    # plan with one kernel row per point.  The render gives the points p
    # apart their row's offset from its centre sample; computed per point,
    # each offset differs by the rounding of its own time (up to ~4 ulp of
    # the grid's last time, ~3e-21 s), which moves a value by up to 8.1e-12
    # here (full scale 1.96).
    low, high = reconstructor.valid_time_range()
    times, rendered, _ = render_uniform(reconstructor, low, high)
    order = np.random.default_rng(3).permutation(times.size)
    planned = np.empty(times.size)
    planned[order] = ReconstructionPlan(paper_record, times[order]).evaluate(DELAY)
    np.testing.assert_allclose(rendered, planned, rtol=0.0, atol=2e-11)


def test_large_render_keeps_its_memory_bounded(paper_record, reconstructor):
    # 84,626 points in 20,163 kernel rows: a plan structure of that grid
    # held 18.7M values and peaked at 195 MB under tracemalloc; the render
    # builds its kernels a bounded block at a time.
    low, high = reconstructor.valid_time_range()
    rate = UHF_8PSK_RATE_OVER_B * paper_record.band.bandwidth
    times = low + np.arange(int(np.floor((high - low) * rate))) / rate
    tracemalloc.start()
    try:
        reconstructor.evaluate(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
