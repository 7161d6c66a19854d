"""Figure 5: the time-skew cost function versus the candidate delay.

Reproduces the paper's Fig. 5 at the exact Section V operating point: QPSK
10 MHz / SRRC 0.5 transmitter at 1 GHz, two 10-bit ADCs at B = 90 MHz and
B1 = 45 MHz with 3 ps rms skew jitter, true delay D = 180 ps, 61-tap
Kaiser-windowed reconstruction, N = 300 random evaluation instants.  The cost
``eps(D_hat)`` is swept over candidate delays in [120, 260] ps and must show a
single, sharp minimum at D_hat = D.
"""

import numpy as np
import pytest

from repro.calibration import SkewCostFunction

from conftest import NUM_COST_POINTS, NUM_TAPS, TRUE_DELAY_S, format_series, print_header

#: Candidate delays of the paper's Fig. 5 x-axis (120 ps ... 260 ps).
CANDIDATES_PS = np.linspace(120.0, 260.0, 29)


def sweep_cost_function(fast, slow):
    cost = SkewCostFunction(
        fast,
        slow,
        num_taps=NUM_TAPS,
        num_evaluation_points=NUM_COST_POINTS,
        seed=20140324,
    )
    return cost.evaluate_many(CANDIDATES_PS * 1e-12), cost


def test_fig5_cost_function(benchmark, paper_acquisitions):
    _, fast, slow = paper_acquisitions
    costs, cost_function = benchmark(lambda: sweep_cost_function(fast, slow))

    print_header("Figure 5 - cost function vs candidate delay D_hat (true D = 180 ps)")
    print(format_series(CANDIDATES_PS, costs, x_label="D_hat [ps]", y_label="cost"))
    best = CANDIDATES_PS[int(np.argmin(costs))]
    print(f"\nsearch interval m = {cost_function.upper_bound * 1e12:.1f} ps (paper: 483 ps)")
    print(f"minimum of the sweep at D_hat = {best:.1f} ps (true D = {TRUE_DELAY_S * 1e12:.0f} ps)")

    # --- Expected shape ------------------------------------------------------
    # The search interval bound matches the paper's m = 483 ps.
    assert cost_function.upper_bound == pytest.approx(483e-12, rel=2e-3)
    # Single minimum located at the true delay (within the sweep step).
    step = (CANDIDATES_PS[1] - CANDIDATES_PS[0]) * 1e-12
    assert abs(best * 1e-12 - TRUE_DELAY_S) <= step
    # The minimum is sharp: the cost at the edges of the sweep is much larger.
    assert costs[0] > 20.0 * costs.min()
    assert costs[-1] > 20.0 * costs.min()
    # The cost decreases monotonically towards the minimum from both sides.
    minimum_index = int(np.argmin(costs))
    assert np.all(np.diff(costs[: minimum_index + 1]) < 0.0)
    assert np.all(np.diff(costs[minimum_index:]) > 0.0)
