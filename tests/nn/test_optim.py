"""Tests for SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam


def quadratic_loss_and_grad(param):
    """f(w) = ||w - 3||^2 with gradient stored on the parameter."""
    target = 3.0
    param.grad[...] = 2.0 * (param.data - target)
    return float(np.sum((param.data - target) ** 2))


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quadratic_loss_and_grad(p)
            opt.step()
            opt.zero_grad()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-4)

    def test_momentum_accelerates(self):
        plain = Parameter(np.zeros(1))
        heavy = Parameter(np.zeros(1))
        opt_plain = SGD([plain], lr=0.01)
        opt_heavy = SGD([heavy], lr=0.01, momentum=0.9)
        for _ in range(20):
            quadratic_loss_and_grad(plain)
            opt_plain.step()
            opt_plain.zero_grad()
            quadratic_loss_and_grad(heavy)
            opt_heavy.step()
            opt_heavy.zero_grad()
        assert abs(heavy.data[0] - 3.0) < abs(plain.data[0] - 3.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.full(3, 10.0))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad[...] = 0.0
        opt.step()
        assert np.all(np.abs(p.data) < 10.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError, match="positive"):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_parameters(self):
        with pytest.raises(ValueError, match="no parameters"):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            quadratic_loss_and_grad(p)
            opt.step()
            opt.zero_grad()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        """Adam's bias correction makes the first update ~= lr."""
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1)
        p.grad[...] = 5.0
        opt.step()
        np.testing.assert_allclose(abs(p.data[0]), 0.1, rtol=1e-5)

    def test_handles_sparse_like_gradients(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.1)
        p.grad[...] = np.array([1.0, 0.0, 0.0])
        opt.step()
        assert p.data[0] != 0.0
        assert p.data[1] == 0.0

    def test_invalid_lr(self):
        with pytest.raises(ValueError, match="positive"):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="Adam.lr must be finite"):
            Adam([Parameter(np.zeros(1))], lr=lr)

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p])
        p.grad[...] = 1.0
        opt.zero_grad()
        assert np.all(p.grad == 0)
