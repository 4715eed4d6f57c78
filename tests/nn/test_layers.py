"""Tests for feed-forward layers: shapes, gradients, semantics."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from tests.conftest import numerical_gradient


def check_input_gradient(layer, x, atol=1e-5):
    """Compare layer.backward against a finite-difference input gradient."""
    out = layer(x)
    seed = np.random.default_rng(0).normal(size=out.shape)
    grad_in = layer.backward(seed)

    def scalar(z):
        return float(np.sum(layer(z) * seed))

    numeric = numerical_gradient(scalar, x.copy())
    np.testing.assert_allclose(grad_in, numeric, atol=atol)


def check_param_gradient(layer, x, param, atol=1e-5):
    """Compare a parameter gradient against finite differences."""
    out = layer(x)
    seed = np.random.default_rng(0).normal(size=out.shape)
    layer.zero_grad() if hasattr(layer, "zero_grad") else None
    param.zero_grad()
    layer.backward(seed)
    analytic = param.grad.copy()

    def scalar(values):
        old = param.data
        param.data = values
        result = float(np.sum(layer(x) * seed))
        param.data = old
        return result

    numeric = numerical_gradient(scalar, param.data.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(x), expected)

    def test_input_gradient(self, rng):
        layer = Linear(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 4)))

    def test_weight_gradient(self, rng):
        layer = Linear(3, 2, rng=rng)
        check_param_gradient(layer, rng.normal(size=(4, 3)), layer.weight)

    def test_bias_gradient(self, rng):
        layer = Linear(3, 2, rng=rng)
        check_param_gradient(layer, rng.normal(size=(4, 3)), layer.bias)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(layer(x), x @ layer.weight.data.T)

    def test_wrong_input_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError, match="expects"):
            layer(rng.normal(size=(2, 5)))

    def test_backward_before_forward(self, rng):
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((2, 3)))


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(rng.normal(size=(2, 3, 9, 9)))
        assert out.shape == (2, 8, 5, 5)

    def test_input_gradient(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(1, 2, 4, 4)))

    def test_weight_gradient(self, rng):
        layer = Conv2d(1, 2, 2, rng=rng)
        check_param_gradient(layer, rng.normal(size=(1, 1, 3, 3)), layer.weight)

    def test_bias_gradient(self, rng):
        layer = Conv2d(1, 2, 2, rng=rng)
        check_param_gradient(layer, rng.normal(size=(1, 1, 3, 3)), layer.bias)

    def test_identity_kernel(self, rng):
        layer = Conv2d(1, 1, 1, bias=False, rng=rng)
        layer.weight.data = np.ones((1, 1, 1, 1))
        x = rng.normal(size=(1, 1, 4, 4))
        np.testing.assert_allclose(layer(x), x)

    def test_channel_mismatch(self, rng):
        layer = Conv2d(3, 8, 3, rng=rng)
        with pytest.raises(ValueError, match="channels"):
            layer(rng.normal(size=(1, 4, 8, 8)))

    def test_forward_columns_matches_forward(self, rng):
        from repro.nn import functional as F

        layer = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 7, 7))
        cols = F.im2col(x, (3, 3), 2, 1)
        cols.flags.writeable = False  # shared lowered buffers are read-only
        out = layer.forward_columns(cols, (2, 4, 4))
        assert out.tobytes() == layer(x).tobytes()

    def test_forward_columns_shape_checked(self, rng):
        layer = Conv2d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError, match="columns of shape"):
            layer.forward_columns(np.zeros((16, 26)), (1, 4, 4))
        with pytest.raises(ValueError, match="columns of shape"):
            layer.forward_columns(np.zeros((16, 27)), (1, 4, 3))


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_routes_to_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer = MaxPool2d(2)
        layer(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        # gradient lands only on the max positions
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_maxpool_input_gradient_numeric(self, rng):
        layer = MaxPool2d(2)
        # offsets avoid ties, which break finite differences
        x = rng.normal(size=(1, 2, 4, 4)) + np.arange(32).reshape(1, 2, 4, 4) * 0.1
        check_input_gradient(layer, x)


class TestBatchNorm:
    def test_training_normalises(self, rng):
        layer = BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(50):
            layer(rng.normal(loc=3.0, size=(16, 2, 2, 2)))
        layer.eval()
        out = layer(np.full((4, 2, 2, 2), 3.0))
        np.testing.assert_allclose(out, 0.0, atol=0.25)

    def test_training_input_gradient(self, rng):
        layer = BatchNorm2d(2)
        check_input_gradient(layer, rng.normal(size=(3, 2, 2, 2)), atol=1e-4)

    def test_gamma_beta_gradients(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(3, 2, 2, 2))
        check_param_gradient(layer, x, layer.gamma, atol=1e-4)
        check_param_gradient(layer, x, layer.beta, atol=1e-4)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            BatchNorm2d(3)(rng.normal(size=(1, 2, 4, 4)))


class TestDropout:
    def test_eval_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.training = False
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer(x), x)

    def test_training_zeroes_and_scales(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((100, 100))
        out = layer(x)
        zeros = np.mean(out == 0)
        assert 0.4 < zeros < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_expected_value_preserved(self, rng):
        layer = Dropout(0.3, rng=rng)
        x = np.ones((200, 200))
        assert abs(layer(x).mean() - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            Dropout(1.0)

    def test_backward_applies_same_mask(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((10, 10))
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)


class TestEmbedding:
    def test_lookup(self, rng):
        layer = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 1]])
        out = layer(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], layer.weight.data[1])

    def test_gradient_accumulates_per_token(self, rng):
        layer = Embedding(5, 3, rng=rng)
        ids = np.array([1, 1, 2])
        layer(ids)
        layer.backward(np.ones((3, 3)))
        np.testing.assert_allclose(layer.weight.grad[1], 2.0)
        np.testing.assert_allclose(layer.weight.grad[2], 1.0)
        np.testing.assert_allclose(layer.weight.grad[0], 0.0)

    def test_out_of_range(self, rng):
        layer = Embedding(5, 3, rng=rng)
        with pytest.raises(ValueError, match="out of range"):
            layer(np.array([5]))


class TestActivationsAndContainers:
    def test_relu_layer_gradient(self, rng):
        check_input_gradient(ReLU(), rng.normal(size=(3, 4)) + 0.05)

    def test_sigmoid_layer_gradient(self, rng):
        check_input_gradient(Sigmoid(), rng.normal(size=(3, 4)))

    def test_tanh_layer_gradient(self, rng):
        check_input_gradient(Tanh(), rng.normal(size=(3, 4)))

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4))
        out = layer(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == (2, 3, 4)

    def test_sequential_forward_backward(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), Tanh(), Linear(8, 2, rng=rng))
        check_input_gradient(model, rng.normal(size=(3, 4)))

    def test_sequential_indexing(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU())
        assert len(model) == 2
        assert isinstance(model[0], Linear)
        assert isinstance(list(model)[1], ReLU)
