"""Tests for repro.signals.symbols."""

import numpy as np

from repro.signals import SymbolSource, qpsk


class TestSymbolSource:
    def test_draw_maps_onto_constellation(self):
        source = SymbolSource(qpsk(), seed=9)
        drawn = source.draw(128)
        distances = np.abs(drawn[:, None] - qpsk().points[None, :]).min(axis=1)
        np.testing.assert_allclose(distances, 0.0, atol=1e-12)

    def test_reproducible_with_same_seed(self):
        a = SymbolSource(qpsk(), seed=11).draw_indices(64)
        b = SymbolSource(qpsk(), seed=11).draw_indices(64)
        np.testing.assert_array_equal(a, b)

    def test_draw_bits_length(self):
        assert SymbolSource(qpsk(), seed=1).draw_bits(37).size == 37

    def test_constellation_property(self):
        constellation = qpsk()
        assert SymbolSource(constellation).constellation is constellation
