"""Unit tests for repro.core.quantize (value-domain quantization)."""

import math

import numpy as np
import pytest

import repro.core.quantize as q
from repro.core.errors import DTypeError, FixedPointOverflowError


class TestRounding:
    def test_round_half_up(self):
        # round mode: floor(x * 2^f + 0.5)
        assert q.round_to_code(0.5, 0, "round") == 1
        assert q.round_to_code(-0.5, 0, "round") == 0
        assert q.round_to_code(0.49, 0, "round") == 0

    def test_floor(self):
        assert q.round_to_code(0.9, 0, "floor") == 0
        assert q.round_to_code(-0.1, 0, "floor") == -1

    def test_ceil(self):
        assert q.round_to_code(0.1, 0, "ceil") == 1
        assert q.round_to_code(-0.9, 0, "ceil") == 0

    def test_trunc(self):
        assert q.round_to_code(0.9, 0, "trunc") == 0
        assert q.round_to_code(-0.9, 0, "trunc") == 0

    def test_fractional_scaling(self):
        assert q.round_to_code(0.40625, 5, "round") == 13

    def test_unknown_mode(self):
        with pytest.raises(DTypeError):
            q.round_to_code(0.5, 0, "nearest_even")


class TestQuantize:
    def test_exact_grid_value(self):
        r = q.quantize_info(0.5, 8, 5)
        assert r.value == 0.5
        assert r.code == 16
        assert not r.overflowed
        assert r.error == 0.0

    def test_rounding_error_bounded_by_half_lsb(self):
        for v in np.linspace(-3.9, 3.9, 101):
            r = q.quantize_info(float(v), 8, 5)
            assert abs(r.error) <= 2.0 ** -6 + 1e-15

    def test_floor_error_is_negative(self):
        for v in np.linspace(-3.9, 3.9, 101):
            r = q.quantize_info(float(v), 8, 5, rounding="floor")
            assert -(2.0 ** -5) < r.error <= 0.0

    def test_saturate_high(self):
        r = q.quantize_info(10.0, 8, 5, overflow="saturate")
        assert r.overflowed
        assert r.value == q.value_max(8, 5)

    def test_saturate_low(self):
        r = q.quantize_info(-10.0, 8, 5, overflow="saturate")
        assert r.overflowed
        assert r.value == -4.0

    def test_wrap(self):
        # 4.0 in <8,5,tc> wraps to -4.0 (code 128 -> -128).
        r = q.quantize_info(4.0, 8, 5, overflow="wrap")
        assert r.overflowed
        assert r.value == -4.0

    def test_error_mode_raises(self):
        with pytest.raises(FixedPointOverflowError):
            q.quantize_info(10.0, 8, 5, overflow="error")

    def test_error_mode_ok_in_range(self):
        r = q.quantize_info(1.0, 8, 5, overflow="error")
        assert not r.overflowed

    def test_nan_rejected(self):
        with pytest.raises(DTypeError):
            q.quantize_info(math.nan, 8, 5)

    def test_unsigned(self):
        r = q.quantize_info(-0.5, 8, 5, signed=False, overflow="saturate")
        assert r.value == 0.0
        r = q.quantize_info(7.99, 8, 5, signed=False, overflow="saturate")
        assert r.value == q.value_max(8, 5, signed=False)

    def test_unknown_overflow_mode(self):
        with pytest.raises(DTypeError):
            q.quantize_info(0.0, 8, 5, overflow="clip")

    def test_quantize_shortcut(self):
        assert q.quantize(0.3, 8, 5) == q.quantize_info(0.3, 8, 5).value


class TestValueBounds:
    def test_signed(self):
        assert q.value_min(8, 5) == -4.0
        assert q.value_max(8, 5) == 4.0 - 2.0 ** -5

    def test_unsigned(self):
        assert q.value_min(8, 5, signed=False) == 0.0
        assert q.value_max(8, 5, signed=False) == 8.0 - 2.0 ** -5

    def test_step(self):
        assert q.quantization_step(5) == 2.0 ** -5
        assert q.quantization_step(0) == 1.0
        assert q.quantization_step(-2) == 4.0


class TestQuantizeArray:
    """The vectorized path must be bit-identical to the scalar path."""

    @pytest.mark.parametrize("overflow", ["wrap", "saturate"])
    @pytest.mark.parametrize("rounding", ["round", "floor", "ceil", "trunc"])
    @pytest.mark.parametrize("signed", [True, False])
    def test_matches_scalar(self, overflow, rounding, signed):
        rng = np.random.default_rng(42)
        values = rng.uniform(-20, 20, size=500)
        if not signed:
            values = np.abs(values)
        got = q.quantize_array(values, 8, 4, signed=signed,
                               overflow=overflow, rounding=rounding)
        want = [q.quantize(float(v), 8, 4, signed=signed, overflow=overflow,
                           rounding=rounding) for v in values]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_wrap_exact_at_53_bits(self):
        # A negative code wraps to a remainder just below 2**53; folding
        # it back must not round through a 54-bit intermediate.
        values = np.array([536870912.0, -1e-38, -3.0, 2.0 ** 30 + 0.5])
        got = q.quantize_array(values, 53, 23, signed=True,
                               overflow="wrap", rounding="floor")
        want = [q.quantize_info(float(v), 53, 23, signed=True,
                                overflow="wrap", rounding="floor").value
                for v in values]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_overflow_count_reported(self):
        out = []
        q.quantize_array(np.array([0.0, 10.0, -10.0, 1.0]), 8, 5,
                         out_overflow=out)
        assert out == [2]

    def test_error_mode_raises(self):
        with pytest.raises(FixedPointOverflowError):
            q.quantize_array(np.array([10.0]), 8, 5, overflow="error")

    def test_wide_words_rejected(self):
        with pytest.raises(DTypeError):
            q.quantize_array(np.array([0.0]), 60, 5)

    def test_preserves_shape(self):
        values = np.zeros((3, 4))
        assert q.quantize_array(values, 8, 5).shape == (3, 4)

    def test_unknown_modes(self):
        with pytest.raises(DTypeError):
            q.quantize_array(np.array([0.0]), 8, 5, overflow="clip")
        with pytest.raises(DTypeError):
            q.quantize_array(np.array([0.0]), 8, 5, rounding="odd")


class TestIdempotence:
    @pytest.mark.parametrize("rounding", ["round", "floor", "ceil", "trunc"])
    def test_double_quantization_is_identity(self, rounding):
        rng = np.random.default_rng(7)
        for v in rng.uniform(-3.9, 3.9, size=50):
            once = q.quantize(float(v), 8, 5, rounding=rounding)
            twice = q.quantize(once, 8, 5, rounding=rounding)
            assert once == twice
