"""Property-based integration tests on the sampling/reconstruction core.

These use hypothesis to vary the signal placement, the inter-channel delay
and the delay estimation error, asserting the invariants the paper's theory
promises: reconstruction works for any valid delay, and the error scales with
the delay error as predicted by Eq. 4.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsp import relative_reconstruction_error
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    band_order,
    delay_upper_bound,
    relative_error_for_delay_error,
)
from repro.signals import multitone_in_band


BAND = BandpassBand.from_centre(1.0e9, 90.0e6)

COMMON_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reconstruction_error(signal, delay, assumed_delay=None, num_samples=300, seed=0):
    sampler = IdealNonuniformSampler(BAND, delay=delay)
    sample_set = sampler.acquire(signal, num_samples=num_samples)
    reconstructor = NonuniformReconstructor(
        sample_set, assumed_delay=assumed_delay, num_taps=60
    )
    low, high = reconstructor.valid_time_range()
    times = np.random.default_rng(seed).uniform(low, high, 150)
    return relative_reconstruction_error(signal.evaluate(times), reconstructor.evaluate(times))


class TestReconstructionInvariants:
    @given(
        delay_ps=st.floats(min_value=30.0, max_value=450.0),
        tone_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(**COMMON_SETTINGS)
    def test_any_valid_delay_reconstructs(self, delay_ps, tone_seed):
        """PNBS works for (almost) any delay in (0, m) - the flexibility claim."""
        delay = delay_ps * 1e-12
        for order in band_order(BAND):
            # Within 0.5 % of a forbidden multiple of T/order: excluded by the theory itself.
            spacing = 1.0 / BAND.bandwidth / order
            if abs(delay / spacing - round(delay / spacing)) < 5e-3:
                return
        signal = multitone_in_band(
            BAND.centre - 7e6, BAND.centre + 7e6, 5, amplitude=0.3, seed=tone_seed
        )
        assert reconstruction_error(signal, delay) < 5e-3

    @given(
        centre_offset_mhz=st.floats(min_value=-25.0, max_value=25.0),
        width_mhz=st.floats(min_value=2.0, max_value=12.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_any_band_position_reconstructs(self, centre_offset_mhz, width_mhz):
        """The signal may sit anywhere inside the acquisition band."""
        centre = BAND.centre + centre_offset_mhz * 1e6
        half_width = width_mhz * 1e6 / 2.0
        signal = multitone_in_band(centre - half_width, centre + half_width, 5, amplitude=0.3, seed=1)
        assert reconstruction_error(signal, 180e-12) < 5e-3

    @given(delay_error_ps=st.floats(min_value=0.5, max_value=12.0))
    @settings(**COMMON_SETTINGS)
    def test_eq4_bounds_measured_error(self, delay_error_ps):
        """The measured error stays within a small factor of the Eq. 4 prediction."""
        delay_error = delay_error_ps * 1e-12
        signal = multitone_in_band(BAND.centre - 7e6, BAND.centre + 7e6, 5, amplitude=0.3, seed=3)
        measured = reconstruction_error(signal, 180e-12, assumed_delay=180e-12 + delay_error)
        predicted = relative_error_for_delay_error(BAND, delay_error)
        assert measured < 2.5 * predicted
        assert measured > predicted / 4.0

    def test_search_interval_consistent_with_band(self):
        bound = delay_upper_bound(BAND)
        assert 0.0 < bound < 1.0 / BAND.bandwidth
