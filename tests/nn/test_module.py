"""Tests for Parameter/Module base classes."""

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter


class TestParameter:
    def test_grad_initialised_to_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_zero_grad(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_shape_and_size(self):
        p = Parameter(np.zeros((3, 5)))
        assert p.shape == (3, 5)
        assert p.size == 15


class TestModuleRegistration:
    def test_parameters_traverses_tree(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4  # two weights, two biases
        assert any("weight" in n for n in names)

    def test_num_parameters(self):
        model = Linear(4, 8)
        assert model.num_parameters() == 4 * 8 + 8

    def test_zero_grad_cascades(self):
        model = Sequential(Linear(3, 3), Linear(3, 3))
        for p in model.parameters():
            p.grad += 1.0
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())


class TestStateDict:
    def test_round_trip(self, rng):
        src = Linear(5, 3, rng=rng)
        dst = Linear(5, 3, rng=np.random.default_rng(999))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(src.weight.data, dst.weight.data)
        np.testing.assert_array_equal(src.bias.data, dst.bias.data)

    def test_state_dict_is_a_copy(self):
        model = Linear(2, 2)
        state = model.state_dict()
        state["weight"][:] = 99.0
        assert not np.any(model.weight.data == 99.0)

    def test_missing_key_raises(self):
        model = Linear(2, 2)
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict({})

    def test_shape_mismatch_raises(self):
        model = Linear(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)


class TestForwardContract:
    def test_base_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
