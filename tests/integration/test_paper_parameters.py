"""Integration tests at the paper's exact operating point (Section V).

These tests exercise the full acquisition + calibration + reconstruction
pipeline with the hardware models configured exactly as in the paper: QPSK
10 MHz / SRRC 0.5 / fc = 1 GHz transmitter, two 10-bit ADCs at B = 90 MHz and
B1 = 45 MHz, 3 ps rms time-skew jitter, D = 180 ps, 61-tap Kaiser-windowed
reconstruction, and N = 300 random evaluation instants.
"""

import numpy as np
import pytest

from repro.adc import AdcChannel, BpTiadc, DigitallyControlledDelayElement, UniformQuantizer
from repro.calibration import LmsSkewEstimator, SineFitSkewEstimator, SkewCostFunction
from repro.dsp import relative_reconstruction_error
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    band_order,
    delay_upper_bound,
)
from repro.signals import single_tone
from repro.transmitter import HomodyneTransmitter, TransmitterConfig


CARRIER = 1.0e9
BANDWIDTH = 90.0e6
DELAY = 180.0e-12
BAND = BandpassBand.from_centre(CARRIER, BANDWIDTH)


def paper_converter(sample_rate=BANDWIDTH, seed=77):
    """The paper's BP-TIADC: two 10-bit ADCs with 3 ps rms skew jitter."""
    return BpTiadc(
        sample_rate=sample_rate,
        dcde=DigitallyControlledDelayElement(resolution_seconds=1e-13),
        channel0=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        channel1=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        skew_jitter_rms_seconds=3.0e-12,
        seed=seed,
    )


@pytest.fixture(scope="module")
def paper_acquisitions():
    """Fast (B) and slow (B/2) acquisitions of one paper-configured burst."""
    transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=41))
    burst = transmitter.transmit_for_duration(5.2e-6)
    fast_adc = paper_converter(BANDWIDTH)
    fast_adc.program_delay(DELAY)
    slow_adc = fast_adc.with_sample_rate(BANDWIDTH / 2.0)
    fast = fast_adc.acquire(burst.rf_output, BAND, num_samples=400)
    slow = slow_adc.acquire(burst.rf_output, BAND, num_samples=200)
    return burst, fast, slow


class TestSectionVConstants:
    def test_band_orders(self):
        assert band_order(BAND) == (22, 23)
        # The B1 = 45 MHz acquisition band stays centred on the carrier, so its
        # low edge is 977.5 MHz and k1 = ceil(2 * 977.5 / 45) = 44.
        slow_band = BandpassBand.from_centre(CARRIER, BANDWIDTH / 2.0)
        assert band_order(slow_band) == (44, 45)

    def test_search_bound_483ps(self):
        assert delay_upper_bound(BAND) == pytest.approx(483e-12, rel=2e-3)

    def test_uniqueness_conditions_for_90_45_mhz(self, paper_acquisitions):
        _, fast, slow = paper_acquisitions
        cost = SkewCostFunction(fast, slow, num_evaluation_points=50, seed=1)
        assert cost.upper_bound == pytest.approx(483e-12, rel=2e-3)


class TestLmsOnHardwareModel:
    def test_lms_reaches_sub_picosecond_accuracy(self, paper_acquisitions):
        _, fast, slow = paper_acquisitions
        cost = SkewCostFunction(fast, slow, num_evaluation_points=300, seed=3)
        estimator = LmsSkewEstimator(cost, initial_step_seconds=1e-12, max_iterations=60)
        result = estimator.estimate(50e-12)
        assert result.converged
        assert abs(result.estimate - fast.delay) < 1.0e-12

    def test_reconstruction_error_about_one_percent(self, paper_acquisitions):
        """Table I: reconstruction with the LMS estimate lands near 1 % error."""
        burst, fast, slow = paper_acquisitions
        cost = SkewCostFunction(fast, slow, num_evaluation_points=300, seed=4)
        estimate = LmsSkewEstimator(cost, initial_step_seconds=1e-12).estimate(50e-12).estimate
        reconstructor = NonuniformReconstructor(fast, assumed_delay=estimate, num_taps=60)
        low, high = reconstructor.valid_time_range()
        times = np.random.default_rng(9).uniform(low, high, 300)
        error = relative_reconstruction_error(
            burst.rf_output.evaluate(times), reconstructor.evaluate(times)
        )
        assert error < 0.05  # percent-level, dominated by the 3 ps skew jitter

    def test_estimate_insensitive_to_starting_point(self, paper_acquisitions):
        _, fast, slow = paper_acquisitions
        cost = SkewCostFunction(fast, slow, num_evaluation_points=200, seed=5)
        estimates = [
            LmsSkewEstimator(cost, initial_step_seconds=1e-12).estimate(start).estimate
            for start in (50e-12, 400e-12)
        ]
        assert abs(estimates[0] - estimates[1]) < 0.5e-12


class TestSineFitBaselineComparison:
    def test_both_methods_reach_table1_accuracy(self):
        """Table I order of magnitude: both estimators resolve D to a few ps or better.

        The LMS additionally needs no dedicated test tone (it runs on the
        operational modulated signal), which is the paper's main qualitative
        argument for it; that property is asserted separately below.
        """
        true_delay = DELAY
        sine_fit_errors = {}
        for fraction in (0.4, 0.46):
            tone_frequency = BAND.f_low + fraction * BANDWIDTH
            tone = single_tone(tone_frequency, amplitude=0.9)
            adc = paper_converter(seed=int(fraction * 100))
            adc.program_delay(true_delay)
            sample_set = adc.acquire(tone, BAND, num_samples=400)
            estimator = SineFitSkewEstimator(tone_frequency_hz=tone_frequency)
            sine_fit_errors[fraction] = abs(
                estimator.estimate(sample_set).estimate - adc.true_delay
            )

        # LMS on the modulated signal with the same hardware impairments.
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=43))
        burst = transmitter.transmit_for_duration(5.2e-6)
        fast_adc = paper_converter(seed=91)
        fast_adc.program_delay(true_delay)
        slow_adc = fast_adc.with_sample_rate(BANDWIDTH / 2.0)
        fast = fast_adc.acquire(burst.rf_output, BAND, num_samples=400)
        slow = slow_adc.acquire(burst.rf_output, BAND, num_samples=200)
        cost = SkewCostFunction(fast, slow, num_evaluation_points=300, seed=7)
        lms_error = abs(
            LmsSkewEstimator(cost, initial_step_seconds=1e-12).estimate(50e-12).estimate
            - fast.delay
        )
        assert lms_error < 1.5e-12  # sub-1.5 ps, Table I territory
        assert all(error < 5.0e-12 for error in sine_fit_errors.values())

    def test_sine_fit_requires_dedicated_stimulus(self, paper_acquisitions):
        """The baseline cannot run on the operational modulated signal."""
        _, fast, _ = paper_acquisitions
        tone_frequency = BAND.f_low + 0.46 * BANDWIDTH
        estimator = SineFitSkewEstimator(tone_frequency_hz=tone_frequency)
        result = estimator.estimate(fast)
        assert abs(result.estimate - fast.delay) > 2e-12


class TestIdealVsHardwareAcquisition:
    def test_quantisation_and_jitter_raise_error_floor(self):
        """The impaired hardware reconstructs worse than the ideal sampler."""
        tone = single_tone(1.005e9, amplitude=0.8)
        ideal = IdealNonuniformSampler(BAND, delay=DELAY).acquire(tone, num_samples=400)
        adc = paper_converter(seed=13)
        adc.program_delay(DELAY)
        hardware = adc.acquire(tone, BAND, num_samples=400)
        rng = np.random.default_rng(2)

        ideal_reconstructor = NonuniformReconstructor(ideal, num_taps=60)
        hardware_reconstructor = NonuniformReconstructor(
            hardware, assumed_delay=hardware.delay, num_taps=60
        )
        low, high = ideal_reconstructor.valid_time_range()
        times = rng.uniform(low, high, 200)
        ideal_error = relative_reconstruction_error(
            tone.evaluate(times), ideal_reconstructor.evaluate(times)
        )
        hardware_error = relative_reconstruction_error(
            tone.evaluate(times), hardware_reconstructor.evaluate(times)
        )
        assert hardware_error > ideal_error
        assert hardware_error < 0.05
