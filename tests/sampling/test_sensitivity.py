"""Tests for repro.sampling.sensitivity (Eq. 4 / Eq. 5 of the paper)."""

import numpy as np
import pytest

from repro.dsp import relative_reconstruction_error
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    max_delay_error_for_relative_error,
    paper_example_delay_requirement,
    relative_error_for_delay_error,
)
from repro.signals import multitone_in_band


class TestClosedForm:
    def test_paper_eq5_about_two_picoseconds(self):
        """Eq. 5: 1 % error at fc = 1 GHz, B = 80 MHz requires dD of about 2 ps."""
        requirement = paper_example_delay_requirement()
        assert 1.0e-12 < requirement < 3.0e-12
        assert requirement == pytest.approx(2.0e-12, rel=0.3)

    def test_error_proportional_to_delay_error(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        assert relative_error_for_delay_error(band, 2e-12) == pytest.approx(
            2.0 * relative_error_for_delay_error(band, 1e-12)
        )

    def test_error_grows_with_carrier_position(self):
        low_carrier = BandpassBand.from_centre(300e6, 90e6)
        high_carrier = BandpassBand.from_centre(2e9, 90e6)
        assert relative_error_for_delay_error(high_carrier, 1e-12) > relative_error_for_delay_error(
            low_carrier, 1e-12
        )

    def test_inverse_relation(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        error = 0.02
        delay = max_delay_error_for_relative_error(band, error)
        assert relative_error_for_delay_error(band, delay) == pytest.approx(error)

    def test_absolute_value_of_delay_error(self):
        band = BandpassBand.from_centre(1e9, 90e6)
        assert relative_error_for_delay_error(band, -3e-12) == relative_error_for_delay_error(
            band, 3e-12
        )


class TestAgainstSimulation:
    def test_eq4_predicts_measured_error_within_factor_two(self):
        """The closed-form Eq. 4 must track the actual reconstructor's error."""
        band = BandpassBand.from_centre(1.0e9, 90.0e6)
        signal = multitone_in_band(band.centre - 7e6, band.centre + 7e6, 7, amplitude=0.3, seed=11)
        true_delay = 180e-12
        sampler = IdealNonuniformSampler(band, delay=true_delay)
        sample_set = sampler.acquire(signal, num_samples=400)
        rng = np.random.default_rng(1)
        for delay_error in (1e-12, 4e-12, 8e-12):
            reconstructor = NonuniformReconstructor(
                sample_set, assumed_delay=true_delay + delay_error, num_taps=60
            )
            low, high = reconstructor.valid_time_range()
            times = rng.uniform(low, high, 250)
            measured = relative_reconstruction_error(
                signal.evaluate(times), reconstructor.evaluate(times)
            )
            predicted = relative_error_for_delay_error(band, delay_error)
            assert predicted / 2.5 < measured < predicted * 2.5
