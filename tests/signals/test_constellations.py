"""Tests for repro.signals.constellations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.signals import constellations as cs


ALL_NAMES = ["bpsk", "qpsk", "8psk", "16qam", "64qam", "256qam"]


def minimum_distance(points: np.ndarray) -> float:
    distances = np.abs(points[:, None] - points[None, :])
    return float(distances[~np.eye(points.size, dtype=bool)].min())


class TestConstruction:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unit_average_energy(self, name):
        constellation = cs.get_constellation(name)
        assert np.mean(np.abs(constellation.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name,order", [("bpsk", 2), ("qpsk", 4), ("8psk", 8), ("16qam", 16), ("64qam", 64)])
    def test_order(self, name, order):
        assert cs.get_constellation(name).order == order

    @pytest.mark.parametrize("name,bits", [("bpsk", 1), ("qpsk", 2), ("8psk", 3), ("16qam", 4), ("64qam", 6)])
    def test_bits_per_symbol(self, name, bits):
        assert cs.get_constellation(name).bits_per_symbol == bits

    def test_points_are_distinct(self):
        for name in ALL_NAMES:
            points = cs.get_constellation(name).points
            assert len(np.unique(np.round(points, 12))) == len(points)

    def test_qpsk_points_on_diagonals(self):
        points = cs.qpsk().points
        np.testing.assert_allclose(np.abs(points.real), np.abs(points.imag), atol=1e-12)

    def test_psk_points_on_unit_circle(self):
        points = cs.psk(8).points
        np.testing.assert_allclose(np.abs(points), 1.0, atol=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            cs.get_constellation("not-a-modulation")

    def test_non_square_qam_rejected(self):
        with pytest.raises(ValidationError):
            cs.qam(32)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            cs.Constellation("bad", np.array([1.0, -1.0, 1j]))


class TestMapping:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_map_returns_the_indexed_points(self, name):
        constellation = cs.get_constellation(name)
        indices = np.arange(constellation.order)[::-1].tolist()
        np.testing.assert_array_equal(constellation.map(indices), constellation.points[indices])

    def test_map_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            cs.qpsk().map([0, 4])


class TestGrayCoding:
    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_psk_neighbours_differ_by_one_bit(self, order):
        constellation = cs.psk(order)
        points = constellation.points
        # Sort points by angle; adjacent points should have Gray labels that
        # differ in exactly one bit.
        labels_by_angle = np.argsort(np.angle(points))
        # Build inverse: symbol value at each angular position.
        for position in range(order):
            a = labels_by_angle[position]
            b = labels_by_angle[(position + 1) % order]
            assert bin(int(a) ^ int(b)).count("1") == 1

    def test_qpsk_spacing_at_unit_energy(self):
        assert minimum_distance(cs.qpsk().points) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_denser_qam_has_closer_points(self):
        assert minimum_distance(cs.qam(64).points) < minimum_distance(cs.qam(16).points)


class TestPropertyBased:
    @given(st.sampled_from(ALL_NAMES))
    @settings(max_examples=10, deadline=None)
    def test_mean_of_points_is_zero(self, name):
        points = cs.get_constellation(name).points
        assert abs(np.mean(points)) < 1e-9
