"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils import validation


class TestScalarChecks:
    def test_check_positive_accepts(self):
        assert validation.check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValidationError):
            validation.check_positive(bad, "x")

    def test_check_non_negative_accepts_zero(self):
        assert validation.check_non_negative(0.0, "x") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            validation.check_non_negative(-0.1, "x")

    def test_check_in_range_inclusive(self):
        assert validation.check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_check_in_range_exclusive_high(self):
        with pytest.raises(ValidationError):
            validation.check_in_range(1.0, "x", 0.0, 1.0, inclusive_high=False)

    def test_check_in_range_exclusive_low(self):
        with pytest.raises(ValidationError):
            validation.check_in_range(0.0, "x", 0.0, 1.0, inclusive_low=False)


class TestIntegerChecks:
    def test_check_integer_accepts_int_like_float(self):
        assert validation.check_integer(4.0, "n") == 4

    def test_check_integer_rejects_fraction(self):
        with pytest.raises(ValidationError):
            validation.check_integer(4.5, "n")

    def test_check_integer_rejects_bool(self):
        with pytest.raises(ValidationError):
            validation.check_integer(True, "n")

    def test_check_integer_minimum(self):
        with pytest.raises(ValidationError):
            validation.check_integer(1, "n", minimum=2)

    @pytest.mark.parametrize("value,ok", [(1, True), (2, True), (1024, True), (3, False), (0, False)])
    def test_check_power_of_two(self, value, ok):
        if ok:
            assert validation.check_power_of_two(value, "n") == value
        else:
            with pytest.raises(ValidationError):
                validation.check_power_of_two(value, "n")


class TestArrayChecks:
    def test_check_1d_array_converts_lists(self):
        out = validation.check_1d_array([1, 2, 3], "a")
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    def test_check_1d_array_rejects_2d(self):
        with pytest.raises(ValidationError):
            validation.check_1d_array(np.zeros((2, 2)), "a")

    def test_check_1d_array_min_length(self):
        with pytest.raises(ValidationError):
            validation.check_1d_array([1.0], "a", min_length=2)

    def test_check_same_length(self):
        validation.check_same_length("a", [1, 2], "b", [3, 4])
        with pytest.raises(ValidationError):
            validation.check_same_length("a", [1, 2], "b", [3])

    def test_check_choice(self):
        assert validation.check_choice("kaiser", "w", ("kaiser", "hann")) == "kaiser"
        with pytest.raises(ValidationError):
            validation.check_choice("boxcar", "w", ("kaiser", "hann"))
