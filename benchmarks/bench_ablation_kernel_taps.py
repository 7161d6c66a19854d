"""Ablation: reconstruction accuracy versus kernel length and window choice.

The paper fixes the practical reconstruction filter at 61 taps (nw = 60) with
a Kaiser window but does not justify the choice; this ablation sweeps the
truncation length and the window family on the ideal-converter platform and
shows (a) the error falls rapidly with the number of taps and saturates
around the paper's choice, and (b) at that length any tapered window performs
well (within roughly an order of magnitude of each other) while the
rectangular (untapered) truncation is dramatically worse, which is what makes
the paper's "Kaiser-windowed 61-tap filter" a sound engineering choice.

The library's reconstructor tapers with that Kaiser window only, so the
sweep evaluates Eq. (6) through :func:`~repro.sampling.reference_evaluate`,
the direct oracle, which still takes a window name.
"""

import numpy as np

from repro.dsp import relative_reconstruction_error
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    reference_evaluate,
)
from repro.signals import multitone_in_band

from conftest import TRUE_DELAY_S, print_header

BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
TAP_SWEEP = (8, 16, 24, 40, 60, 80, 120)
WINDOWS = ("kaiser", "hann", "hamming", "blackman", "rectangular")


def run_ablation():
    signal = multitone_in_band(BAND.centre - 7e6, BAND.centre + 7e6, 9, amplitude=0.3, seed=3)
    sample_set = IdealNonuniformSampler(BAND, delay=TRUE_DELAY_S).acquire(signal, num_samples=600)
    rng = np.random.default_rng(11)

    def error(num_taps, window):
        low, high = NonuniformReconstructor(sample_set, num_taps=num_taps).valid_time_range()
        times = rng.uniform(low, high, 250)
        estimate = reference_evaluate(sample_set, times, num_taps=num_taps, window=window)
        return relative_reconstruction_error(signal.evaluate(times), estimate)

    taps_sweep = {num_taps: error(num_taps, "kaiser") for num_taps in TAP_SWEEP}
    window_sweep = {window: error(60, window) for window in WINDOWS}
    return taps_sweep, window_sweep


def test_ablation_kernel_taps(benchmark):
    taps_sweep, window_sweep = benchmark(run_ablation)

    print_header("Ablation - reconstruction error vs kernel taps (Kaiser) and window (nw = 60)")
    print(f"{'nw (taps-1)':>12} {'relative error':>16}")
    for num_taps, error in taps_sweep.items():
        print(f"{num_taps:>12} {error:>16.3e}")
    print(f"\n{'window':>12} {'relative error':>16}")
    for window, error in window_sweep.items():
        print(f"{window:>12} {error:>16.3e}")

    # --- Expected shape ------------------------------------------------------
    errors = np.array(list(taps_sweep.values()))
    # Error decreases monotonically with the kernel length...
    assert np.all(np.diff(errors) < 0.0)
    # ...and the paper's nw = 60 already achieves a very small error,
    # with diminishing returns beyond it.
    assert taps_sweep[60] < 1e-3
    assert taps_sweep[60] < 0.05 * taps_sweep[8]
    assert taps_sweep[120] > 0.05 * taps_sweep[60]  # < 20x improvement from doubling
    # At nw = 60 every tapered window performs well (same order of magnitude)
    # while the rectangular truncation is far worse; the Kaiser choice is sound.
    tapered = {name: err for name, err in window_sweep.items() if name != "rectangular"}
    assert window_sweep["kaiser"] <= 10.0 * min(tapered.values())
    assert window_sweep["rectangular"] > 20.0 * window_sweep["kaiser"]
