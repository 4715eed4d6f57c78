"""Tests for fixed-point tensors and linear quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant import int_range, quantize_linear
from repro.quant.fixed_point import FixedPointTensor


class TestIntRange:
    def test_known_ranges(self):
        assert int_range(4) == (-8, 7)
        assert int_range(8) == (-128, 127)
        assert int_range(16) == (-32768, 32767)

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="at least 2 bits"):
            int_range(1)


class TestFixedPointTensor:
    def test_round_trip_value(self):
        t = FixedPointTensor(np.array([1, -2, 3]), scale=0.5, bits=8)
        np.testing.assert_allclose(t.to_float(), [0.5, -1.0, 1.5])

    def test_payload_must_be_integer(self):
        with pytest.raises(TypeError, match="integer"):
            FixedPointTensor(np.array([1.5]), scale=1.0, bits=8)

    def test_out_of_range_payload(self):
        with pytest.raises(ValueError, match="out of INT4 range"):
            FixedPointTensor(np.array([100]), scale=1.0, bits=4)

    def test_shape(self):
        t = FixedPointTensor(np.zeros((2, 3), dtype=np.int64), 1.0, 16)
        assert t.shape == (2, 3)


class TestQuantizeLinear:
    def test_auto_scale_maps_max_to_full_range(self, rng):
        x = rng.normal(size=100)
        t = quantize_linear(x, bits=8)
        assert t.values.max() == 127 or t.values.min() == -128 or np.abs(t.values).max() == 127

    def test_round_trip_error_bounded_by_half_scale(self, rng):
        x = rng.normal(size=200)
        t = quantize_linear(x, bits=8)
        err = np.abs(t.to_float() - x)
        assert err.max() <= t.scale * 0.5 + 1e-12

    def test_explicit_scale_saturates(self):
        t = quantize_linear(np.array([100.0]), bits=4, scale=1.0)
        assert t.values[0] == 7  # saturated at INT4 max

    def test_zero_input(self):
        t = quantize_linear(np.zeros(5), bits=8)
        assert np.all(t.values == 0)
        np.testing.assert_allclose(t.to_float(), 0.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="positive"):
            quantize_linear(np.ones(3), bits=8, scale=-1.0)

    @settings(deadline=None, max_examples=50)
    @given(
        arrays(np.float64, 20, elements=st.floats(-100, 100, allow_nan=False)),
        st.sampled_from([4, 8, 16]),
    )
    def test_quantization_error_invariant(self, x, bits):
        """Property: max |error| <= scale / 2 for any input and bit width."""
        t = quantize_linear(x, bits=bits)
        err = np.abs(t.to_float() - x)
        assert err.max() <= t.scale * 0.5 + 1e-9


class TestSaturationRails:
    def test_int4_saturates_at_both_rails(self):
        t = quantize_linear(np.array([-10.0, 10.0]), bits=4, scale=1.0)
        np.testing.assert_array_equal(t.values, [-8, 7])

    def test_int8_saturates_at_both_rails(self):
        t = quantize_linear(np.array([-1000.0, 1000.0]), bits=8, scale=1.0)
        np.testing.assert_array_equal(t.values, [-128, 127])

    def test_rail_values_are_representable(self):
        """The exact rail magnitudes quantize without saturation error."""
        t = quantize_linear(np.array([-8.0, 7.0]), bits=4, scale=1.0)
        np.testing.assert_array_equal(t.to_float(), [-8.0, 7.0])


class TestRoundingTies:
    def test_half_integer_ties_round_to_even(self):
        """np.rint uses banker's rounding: .5 ties go to the even integer."""
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        t = quantize_linear(x, bits=8, scale=1.0)
        np.testing.assert_array_equal(t.values, [0, 2, 2, 0, -2, -2])

    def test_ties_at_fractional_scale(self):
        """Ties are relative to the scale grid, not the integers."""
        t = quantize_linear(np.array([0.25, 0.75]), bits=8, scale=0.5)
        np.testing.assert_array_equal(t.values, [0, 2])

    def test_near_ties_round_to_nearest(self):
        t = quantize_linear(np.array([1.4999, 1.5001]), bits=8, scale=1.0)
        np.testing.assert_array_equal(t.values, [1, 2])


class TestTernaryRoundTrip:
    """INT4 handling of ternary {-1, 0, +1} weights (the QDR extreme)."""

    def test_unit_scale_round_trip_is_exact(self):
        x = np.array([-1.0, 0.0, 1.0, 1.0, -1.0, 0.0])
        t = quantize_linear(x, bits=4, scale=1.0)
        np.testing.assert_array_equal(t.values, [-1, 0, 1, 1, -1, 0])
        np.testing.assert_array_equal(t.to_float(), x)

    def test_auto_scale_requantize_is_stable(self):
        """Quantize -> dequantize -> quantize is a fixed point: the second
        pass reproduces the first payload exactly."""
        x = np.array([-1.0, 0.0, 1.0])
        first = quantize_linear(x, bits=4)
        second = quantize_linear(first.to_float(), bits=4)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_allclose(second.to_float(), first.to_float())


class TestSubnormalInputs:
    def test_subnormal_tensor_quantizes_to_zero(self):
        """Regression: subnormal magnitudes underflowed the auto-scale to
        exactly zero and raised; they now quantize as an all-zero tensor."""
        x = np.full(4, 5e-324)
        t = quantize_linear(x, bits=8)
        assert np.all(t.values == 0)
        assert t.scale > 0
