"""Tests for the QDR approximate modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import ApproximateLinear
from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLSTMCell,
    _quantize_dequantize,
    _quantize_dequantize_rows,
)
from repro.quant import quantize_linear


class TestApproximateLinear:
    def test_output_shape(self, rng):
        ap = ApproximateLinear(32, 16, 8, rng=rng)
        assert ap.forward(rng.normal(size=(4, 32))).shape == (4, 16)

    def test_float_path_is_linear(self, rng):
        """forward_float is exactly W' P x + b' (no quantization noise)."""
        ap = ApproximateLinear(20, 10, 5, rng=rng)
        x = rng.normal(size=(3, 20))
        expected = (ap.projection.apply(x)) @ ap.weight.T + ap.bias
        np.testing.assert_allclose(ap.forward_float(x), expected, atol=1e-12)

    def test_quantized_path_close_to_float(self, rng):
        ap = ApproximateLinear(64, 32, 16, rng=rng, weight_bits=8, input_bits=8)
        x = rng.normal(size=(8, 64))
        q = ap.forward(x)
        f = ap.forward_float(x)
        # INT8 round trips keep the results close
        assert np.abs(q - f).max() < 0.25 * np.abs(f).std() + 0.1

    def test_lower_bits_more_noise(self, rng):
        x = rng.normal(size=(16, 64))
        errs = []
        for bits in (2, 4, 8):
            ap = ApproximateLinear(
                64, 32, 16, rng=np.random.default_rng(7), weight_bits=bits,
                input_bits=bits,
            )
            errs.append(float(np.mean((ap.forward(x) - ap.forward_float(x)) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_cost_accounting(self, rng):
        ap = ApproximateLinear(100, 50, 10, rng=rng)
        assert ap.macs_per_vector() == 50 * 10
        assert ap.additions_per_vector() == ap.projection.addition_count()
        assert ap.parameter_count() == 50 * 10 + 50

    def test_parameter_volume_much_smaller_than_accurate(self, rng):
        """The QDR module must be lightweight (paper design goal)."""
        ap = ApproximateLinear(1024, 1024, 128, rng=rng)
        accurate_params = 1024 * 1024
        assert ap.parameter_count() < accurate_params / 7


class TestApproximateConv2d:
    def test_output_shape(self, rng):
        ap = ApproximateConv2d(3, 8, 3, reduced_features=6, padding=1, rng=rng)
        out = ap.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 8, 8, 8)

    def test_geometry_follows_stride(self, rng):
        ap = ApproximateConv2d(3, 4, 3, reduced_features=5, stride=2, rng=rng)
        out = ap.forward(rng.normal(size=(1, 3, 9, 9)))
        assert out.shape == (1, 4, 4, 4)

    def test_float_path_matches_inner(self, rng):
        from repro.nn import functional as F

        ap = ApproximateConv2d(2, 4, 3, reduced_features=5, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        cols = F.im2col(x, (3, 3), 1, 0)
        inner_out = ap.inner.forward_float(cols)
        conv_out = ap.forward_float(x)
        np.testing.assert_allclose(
            conv_out[0].transpose(1, 2, 0).reshape(-1, 4), inner_out, atol=1e-12
        )

    def test_reduced_features_property(self, rng):
        ap = ApproximateConv2d(3, 8, 3, reduced_features=6, rng=rng)
        assert ap.reduced_features == 6

    def test_forward_columns_matches_forward(self, rng):
        ap = ApproximateConv2d(3, 4, 3, reduced_features=5, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 7, 7))
        cols, geometry = ap.lower(x)
        assert geometry == (2, 4, 4)
        assert ap.forward_columns(cols, geometry).tobytes() == ap.forward(x).tobytes()


class TestQuantizeDequantize:
    """``_quantize_dequantize`` is ``quantize_linear(x, bits).to_float()``
    computed in one float buffer; every output byte must agree."""

    @settings(deadline=None, max_examples=200)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.integers(2, 16),
    )
    def test_byte_identical_to_quantize_linear(self, x, bits):
        # near DBL_MAX both round trips overflow to the same inf
        with np.errstate(over="ignore"):
            ours = _quantize_dequantize(x, bits)
            ref = quantize_linear(x, bits).to_float()
        assert ours.dtype == np.float64 and ours.shape == x.shape
        assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bits", range(2, 17))
    @pytest.mark.parametrize(
        "x",
        [
            # -1e-3 rounds to a negative zero before the payload's int cast
            np.array([-1e-3, 1.0, -0.2, 0.0]),
            np.array([5e-324, -5e-324, 0.0]),  # subnormal max underflows the scale
            np.array([-2.2e-308, 1e-310]),
            np.zeros((2, 3)),
            -np.zeros(4),
            np.array([]),
            np.zeros((0, 5)),
            np.array([3.0, 7.5, 1e-3]),  # single sign
            -np.array([3.0, 7.5, 1e-3]),
            np.array([1e300, -1.7e308, 2.0]),
        ],
        ids=lambda v: None if isinstance(v, int) else f"{v.size}v",
    )
    def test_edge_cases_byte_identical(self, x, bits):
        with np.errstate(over="ignore"):
            ours = _quantize_dequantize(x, bits)
            ref = quantize_linear(x, bits).to_float()
        assert ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()
        assert not np.signbit(ours[ours == 0.0]).any()  # no -0.0 survives

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _quantize_dequantize(np.array([0.5, bad, -1.0]), 4)
        with pytest.raises(ValueError, match="non-finite"):
            _quantize_dequantize_rows(np.array([[0.5, 1.0], [bad, -1.0]]), 4)

    def test_non_finite_qdr_weight_rejected(self, rng):
        ap = ApproximateLinear(8, 3, 4, rng=rng)
        ap.weight[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ap.forward(rng.normal(size=(1, 8)))


class TestApproximateRecurrent:
    def test_lstm_shapes(self, rng):
        ap = ApproximateLSTMCell(10, 12, 4, 5, rng=rng)
        pre = ap.pre_activations(
            rng.normal(size=(3, 10)), rng.normal(size=(3, 12))
        )
        assert pre.shape == (3, 4 * 12)

    def test_gru_shapes(self, rng):
        ap = ApproximateGRUCell(10, 12, 4, 5, rng=rng)
        pre = ap.pre_activations(
            rng.normal(size=(3, 10)), rng.normal(size=(3, 12))
        )
        assert pre.shape == (3, 3 * 12)

    def test_reduced_dims(self, rng):
        ap = ApproximateLSTMCell(100, 200, 10, 20, rng=rng)
        assert ap.reduced_input == 10
        assert ap.reduced_hidden == 20

    def test_cost_accounting(self, rng):
        ap = ApproximateLSTMCell(100, 50, 10, 5, rng=rng)
        assert ap.macs_per_step() == 4 * 50 * (10 + 5)
        assert ap.additions_per_step() == (
            ap.proj_x.addition_count() + ap.proj_h.addition_count()
        )
        assert ap.parameter_count() == ap.w_ih.size + ap.w_hh.size + ap.bias.size

    def test_quantized_vs_float_paths_differ(self, rng):
        ap = ApproximateLSTMCell(16, 8, 4, 4, rng=rng, weight_bits=2, input_bits=2)
        x, h = rng.normal(size=(2, 16)), rng.normal(size=(2, 8))
        q = ap.pre_activations(x, h, quantized=True)
        f = ap.pre_activations(x, h, quantized=False)
        assert not np.allclose(q, f)
