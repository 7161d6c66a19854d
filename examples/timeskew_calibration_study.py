"""Time-skew calibration study: Fig. 5 and Fig. 6 of the paper, as a script.

Builds the Section V platform, sweeps the reconstruction-disagreement cost
function over candidate delays (the data behind Fig. 5), then runs the LMS
estimator from the paper's four starting points and prints the convergence
trajectories (the data behind Fig. 6).  Finally it compares the result
against the sine-fit baseline driven by a dedicated test tone (Table I).

Run with:  python examples/timeskew_calibration_study.py
"""

import numpy as np

from repro.adc import AdcChannel, BpTiadc, DigitallyControlledDelayElement, UniformQuantizer
from repro.calibration import LmsSkewEstimator, SineFitSkewEstimator, SkewCostFunction
from repro.sampling import BandpassBand
from repro.signals import single_tone
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

CARRIER_HZ = 1.0e9
BANDWIDTH_HZ = 90.0e6
TRUE_DELAY_S = 180.0e-12


def build_converter(sample_rate: float, seed: int = 7) -> BpTiadc:
    """The paper's BP-TIADC: two 10-bit channels, 3 ps rms skew jitter."""
    return BpTiadc(
        sample_rate=sample_rate,
        dcde=DigitallyControlledDelayElement(resolution_seconds=1e-13),
        channel0=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        channel1=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        skew_jitter_rms_seconds=3.0e-12,
        seed=seed,
    )


def main() -> None:
    band = BandpassBand.from_centre(CARRIER_HZ, BANDWIDTH_HZ)

    # The transmitter emits its operational modulated signal - no dedicated
    # test stimulus is needed for the LMS scheme.
    transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=3))
    burst = transmitter.transmit_for_duration(5.5e-6)

    fast_adc = build_converter(BANDWIDTH_HZ)
    fast_adc.program_delay(TRUE_DELAY_S)
    slow_adc = fast_adc.with_sample_rate(BANDWIDTH_HZ / 2.0)
    fast = fast_adc.acquire(burst.rf_output, band, num_samples=400)
    slow = slow_adc.acquire(burst.rf_output, band, num_samples=200)

    cost = SkewCostFunction(fast, slow, num_evaluation_points=300, seed=11)
    print(f"search interval for the delay estimate: (0, {cost.upper_bound * 1e12:.0f}) ps")

    # ---- Fig. 5: the cost function has a single minimum at the true delay ----
    candidates_ps = np.linspace(120.0, 260.0, 15)
    print("\ncost function vs candidate delay (Fig. 5):")
    for candidate_ps in candidates_ps:
        print(f"  D_hat = {candidate_ps:6.1f} ps   eps = {cost(candidate_ps * 1e-12):.5f}")

    # ---- Fig. 6: LMS convergence from several starting points ---------------
    print("\nLMS convergence (Fig. 6):")
    for start_ps in (50.0, 100.0, 350.0, 400.0):
        estimator = LmsSkewEstimator(cost, initial_step_seconds=1e-12, max_iterations=60)
        result = estimator.estimate(start_ps * 1e-12)
        print(
            f"  D_hat0 = {start_ps:5.0f} ps -> D_hat = {result.estimate * 1e12:7.2f} ps in "
            f"{result.iterations} iterations "
            f"(true D = {fast.delay * 1e12:.2f} ps, error "
            f"{abs(result.estimate - fast.delay) * 1e12:.3f} ps)"
        )

    # ---- Table I flavour: the sine-fit baseline needs a known tone ----------
    print("\nsine-fit baseline (needs a dedicated known tone):")
    for fraction in (0.40, 0.46):
        tone_frequency = band.f_low + fraction * BANDWIDTH_HZ
        tone_adc = build_converter(BANDWIDTH_HZ, seed=int(100 * fraction))
        tone_adc.program_delay(TRUE_DELAY_S)
        tone_set = tone_adc.acquire(single_tone(tone_frequency, 0.9), band, num_samples=400)
        estimate = SineFitSkewEstimator(tone_frequency_hz=tone_frequency).estimate(tone_set)
        print(
            f"  omega0 = {fraction:.2f} B -> D_hat = {estimate.estimate * 1e12:7.2f} ps "
            f"(error {abs(estimate.estimate - tone_set.delay) * 1e12:.3f} ps)"
        )


if __name__ == "__main__":
    main()
