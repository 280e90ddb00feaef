"""The three argument checks every module shares: what counts as an
integer, a real number and a finite series, and which error each raises."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sensorstack.errors import ConfigError, UsageError, checked_int, checked_real, checked_series


class TestCheckedInt:
    @pytest.mark.parametrize("value", [0, -7, 2**70, np.int8(-3), np.uint64(2**64 - 1)], ids=repr)
    def test_integers_become_python_ints(self, value):
        got = checked_int(value, "n", UsageError)
        assert type(got) is int and got == value

    @pytest.mark.parametrize(
        "value", [True, np.bool_(False), 1.0, np.float64(2.0), "1", None, Fraction(1), Decimal(1), [1]], ids=repr
    )
    @pytest.mark.parametrize("error", [UsageError, ConfigError])
    def test_anything_else_raises_the_given_error_naming_the_value(self, value, error):
        with pytest.raises(error, match="^count must be an integer"):
            checked_int(value, "count", error)


class TestCheckedReal:
    @pytest.mark.parametrize(
        "value", [0, -3, 2.5, math.inf, -math.inf, np.int64(4), np.float32(0.5), np.float64(1e300)], ids=repr
    )
    def test_reals_become_floats(self, value):
        got = checked_real(value, "x", UsageError)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize(
        "value", [True, np.bool_(True), "2.5", b"1", None, Fraction(1, 2), Decimal("0.5"), 1j, [1.0], np.array(1.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("error", [UsageError, ConfigError])
    def test_non_numbers_raise_the_given_error(self, value, error):
        with pytest.raises(error, match="^rate must be a number"):
            checked_real(value, "rate", error)

    @pytest.mark.parametrize("value", [math.nan, np.float32("nan")], ids=repr)
    def test_nan_is_refused(self, value):
        with pytest.raises(ConfigError, match="finite"):
            checked_real(value, "rate", ConfigError)

    def test_an_integer_beyond_the_float_range_is_refused_not_overflowed(self):
        with pytest.raises(UsageError, match="float range"):
            checked_real(10**400, "rate", UsageError)


class TestCheckedSeries:
    def test_numbers_become_a_float_array_and_a_float_array_is_not_copied(self):
        assert checked_series([1, 2.5], "s", UsageError).tolist() == [1.0, 2.5]
        values = np.array([1.0, 2.0])
        assert checked_series(values, "s", UsageError) is values

    @pytest.mark.parametrize(
        "value, message",
        [
            (["a"], "hold numbers"),
            ([[1.0], [2.0, 3.0]], "hold numbers"),
            ([], "non-empty 1-d"),
            (5.0, "non-empty 1-d"),
            (np.zeros((2, 2)), "non-empty 1-d"),
            ([1.0, math.nan], "finite"),
            ([-math.inf, 1.0], "finite"),
        ],
        ids=repr,
    )
    def test_anything_else_raises_the_given_error(self, value, message):
        with pytest.raises(ConfigError, match=f"^series .*{message}"):
            checked_series(value, "series", ConfigError)
