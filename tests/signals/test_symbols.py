"""Tests for repro.signals.symbols."""

import numpy as np

from repro.signals import SymbolSource, qpsk


class TestSymbolSource:
    def test_indices_address_the_constellation(self):
        indices = SymbolSource(qpsk(), seed=9).draw_indices(128)
        assert indices.dtype == np.int64
        assert set(indices.tolist()) == {0, 1, 2, 3}

    def test_reproducible_with_same_seed(self):
        a = SymbolSource(qpsk(), seed=11).draw_indices(64)
        b = SymbolSource(qpsk(), seed=11).draw_indices(64)
        np.testing.assert_array_equal(a, b)

