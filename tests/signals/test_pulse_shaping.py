"""Tests for repro.signals.pulse_shaping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.signals import PulseShaper, qpsk, root_raised_cosine_taps


def loop_root_raised_cosine_taps(samples_per_symbol, span_symbols, rolloff):
    """The tap-by-tap SRRC the vectorised one must reproduce bit for bit."""
    num_taps = span_symbols * samples_per_symbol + 1
    t = (np.arange(num_taps) - (num_taps - 1) / 2.0) / samples_per_symbol
    alpha = rolloff
    taps = np.zeros(num_taps, dtype=float)
    if alpha == 0.0:
        taps = np.sinc(t)
    else:
        for i, ti in enumerate(t):
            if np.isclose(ti, 0.0):
                taps[i] = 1.0 - alpha + 4.0 * alpha / np.pi
            elif np.isclose(abs(ti), 1.0 / (4.0 * alpha)):
                taps[i] = (alpha / np.sqrt(2.0)) * (
                    (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * alpha))
                    + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * alpha))
                )
            else:
                numerator = np.sin(np.pi * ti * (1.0 - alpha)) + 4.0 * alpha * ti * np.cos(
                    np.pi * ti * (1.0 + alpha)
                )
                denominator = np.pi * ti * (1.0 - (4.0 * alpha * ti) ** 2)
                taps[i] = numerator / denominator
    energy = np.sum(taps**2)
    return taps / np.sqrt(energy)


class TestRootRaisedCosine:
    def test_unit_energy(self):
        taps = root_raised_cosine_taps(16, 10, 0.5)
        assert np.sum(taps**2) == pytest.approx(1.0)

    def test_symmetry(self):
        taps = root_raised_cosine_taps(16, 10, 0.5)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)

    def test_cascade_is_nyquist(self):
        # SRRC * SRRC (matched pair) must be ISI-free at symbol spacing.
        sps = 8
        taps = root_raised_cosine_taps(sps, 12, 0.5)
        cascade = np.convolve(taps, taps)
        centre = (cascade.size - 1) // 2
        peak = cascade[centre]
        for k in range(1, 5):
            assert abs(cascade[centre + k * sps] / peak) < 1e-3

    def test_zero_rolloff_is_normalised_sinc(self):
        taps = root_raised_cosine_taps(4, 8, 0.0)
        assert np.sum(taps**2) == pytest.approx(1.0)

    def test_occupied_bandwidth_grows_with_rolloff(self):
        sps = 16
        narrow = np.abs(np.fft.rfft(root_raised_cosine_taps(sps, 16, 0.1), 4096))
        wide = np.abs(np.fft.rfft(root_raised_cosine_taps(sps, 16, 0.9), 4096))
        # Compare energy beyond the half-symbol-rate bin.
        half_rate_bin = 4096 // (2 * sps)
        assert np.sum(wide[half_rate_bin + 50 :] ** 2) > np.sum(narrow[half_rate_bin + 50 :] ** 2)


class TestVectorisedTapsMatchTheLoop:
    @pytest.mark.parametrize(
        "samples_per_symbol, span_symbols, rolloff",
        [
            (16, 10, 0.5),  # the paper's pulse: taps on |t| = 1/(4 alpha) = 1/2
            (8, 6, 0.25),  # |t| = 1 symbol
            (4, 8, 0.125),  # |t| = 2 symbols
            (3, 9, 0.35),  # (4 alpha t)**2 rounds differently as x*x and pow(x, 2)
            (5, 5, 0.5),  # even tap count
            (4, 8, 0.0),
            (7, 3, 1.0),
            (1, 1, 1.0),
        ],
    )
    def test_named_grids(self, samples_per_symbol, span_symbols, rolloff):
        assert np.array_equal(
            root_raised_cosine_taps(samples_per_symbol, span_symbols, rolloff),
            loop_root_raised_cosine_taps(samples_per_symbol, span_symbols, rolloff),
        )

    @given(
        samples_per_symbol=st.integers(min_value=1, max_value=32),
        span_symbols=st.integers(min_value=1, max_value=16),
        rolloff=st.one_of(
            st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.125, 1 / 3, 0.35, 0.22]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_generated_grids(self, samples_per_symbol, span_symbols, rolloff):
        assert np.array_equal(
            root_raised_cosine_taps(samples_per_symbol, span_symbols, rolloff),
            loop_root_raised_cosine_taps(samples_per_symbol, span_symbols, rolloff),
        )


class TestPulseShaper:
    def test_shape_length(self):
        shaper = PulseShaper(8, root_raised_cosine_taps(8, span_symbols=6, rolloff=0.5))
        symbols = qpsk().map(np.arange(4).repeat(8))
        shaped = shaper.shape(symbols)
        assert shaped.size == symbols.size * 8 + shaper.taps.size - 1

    def test_shape_trimmed_length(self):
        shaper = PulseShaper(8, root_raised_cosine_taps(8, span_symbols=6, rolloff=0.5))
        symbols = qpsk().map(np.zeros(32, dtype=int))
        assert shaper.shape_trimmed(symbols).size == 32 * 8

    def test_trimmed_short_block_still_has_nominal_length(self):
        # Even when the block is shorter than the filter span the trimmed
        # output keeps the nominal num_symbols * sps length (the content is
        # simply transient-contaminated).
        shaper = PulseShaper(8, root_raised_cosine_taps(8, span_symbols=64, rolloff=0.5))
        symbols = qpsk().map(np.zeros(16, dtype=int))
        assert shaper.shape_trimmed(symbols).size == 16 * 8

    def test_group_delay(self):
        shaper = PulseShaper(8, root_raised_cosine_taps(8, span_symbols=10, rolloff=0.5))
        assert shaper.group_delay_samples == 40

    def test_invalid_sps(self):
        with pytest.raises(ValidationError):
            PulseShaper(0, np.ones(3))
