"""Tests for repro.utils.units."""

import numpy as np
import pytest

from repro.utils import units


class TestAmplitudeRatio:
    def test_known_values(self):
        assert units.db_to_amplitude_ratio(0.0) == pytest.approx(1.0)
        assert units.db_to_amplitude_ratio(20.0) == pytest.approx(10.0)
        assert units.db_to_amplitude_ratio(-20.0) == pytest.approx(0.1)
        ratios = units.db_to_amplitude_ratio(np.array([0.0, 20.0, -20.0]))
        assert isinstance(ratios, np.ndarray)
        np.testing.assert_allclose(ratios, [1.0, 10.0, 0.1])

    def test_adding_decibels_multiplies_ratios(self):
        a = np.array([-40.0, -6.0, 0.5, 3.0, 17.0])
        b = np.array([12.0, -0.25, 9.0, -30.0, 6.0])
        np.testing.assert_allclose(
            units.db_to_amplitude_ratio(a + b),
            units.db_to_amplitude_ratio(a) * units.db_to_amplitude_ratio(b),
            rtol=1e-12,
        )
