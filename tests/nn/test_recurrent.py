"""Tests for LSTM/GRU cells and BPTT wrappers."""

import numpy as np
import pytest

from repro.nn import GRU, LSTM, GRUCell, LSTMCell
from repro.nn import functional as F
from tests.conftest import numerical_gradient


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(5, 7, rng=rng)
        (h, c), cache = cell(rng.normal(size=(3, 5)), cell.init_state(3))
        assert h.shape == (3, 7) and c.shape == (3, 7)
        assert set(cache) >= {"i", "f", "g", "o", "tanh_c"}

    def test_forward_matches_manual(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = rng.normal(size=(1, 2))
        h0, c0 = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        (h, c), _ = cell(x, (h0, c0))
        pre = x @ cell.w_ih.data.T + h0 @ cell.w_hh.data.T + cell.b.data
        i, f = F.sigmoid(pre[:, :3]), F.sigmoid(pre[:, 3:6])
        g, o = F.tanh(pre[:, 6:9]), F.sigmoid(pre[:, 9:12])
        c_ref = f * c0 + i * g
        np.testing.assert_allclose(c, c_ref, atol=1e-12)
        np.testing.assert_allclose(h, o * np.tanh(c_ref), atol=1e-12)

    def test_input_gradient_numeric(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        state = (rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        seed_h = rng.normal(size=(2, 4))

        (h, _), cache = cell(x, state)
        grad_x, _ = cell.backward(seed_h, cell.init_state(2), cache)

        def scalar(z):
            (hh, _), _ = cell(z, state)
            return float(np.sum(hh * seed_h))

        numeric = numerical_gradient(scalar, x.copy())
        np.testing.assert_allclose(grad_x, numeric, atol=1e-5)

    def test_state_gradient_numeric(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        seed_h = rng.normal(size=(2, 4))
        seed_c = rng.normal(size=(2, 4))

        (_, _), cache = cell(x, (h0, c0))
        _, (grad_h, grad_c) = cell.backward(seed_h, (np.zeros((2, 4)), seed_c), cache)

        def scalar_h(z):
            (hh, cc), _ = cell(x, (z, c0))
            return float(np.sum(hh * seed_h) + np.sum(cc * seed_c))

        def scalar_c(z):
            (hh, cc), _ = cell(x, (h0, z))
            return float(np.sum(hh * seed_h) + np.sum(cc * seed_c))

        np.testing.assert_allclose(
            grad_h, numerical_gradient(scalar_h, h0.copy()), atol=1e-5
        )
        np.testing.assert_allclose(
            grad_c, numerical_gradient(scalar_c, c0.copy()), atol=1e-5
        )

    def test_weight_gradient_numeric(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = rng.normal(size=(2, 2))
        state = cell.init_state(2)
        seed = rng.normal(size=(2, 3))
        (_, _), cache = cell(x, state)
        cell.zero_grad()
        cell.backward(seed, state, cache)
        analytic = cell.w_ih.grad.copy()

        def scalar(w):
            old = cell.w_ih.data
            cell.w_ih.data = w
            (h, _), _ = cell(x, state)
            cell.w_ih.data = old
            return float(np.sum(h * seed))

        numeric = numerical_gradient(scalar, cell.w_ih.data.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestGRUCell:
    def test_step_shapes(self, rng):
        cell = GRUCell(5, 7, rng=rng)
        h, cache = cell(rng.normal(size=(3, 5)), cell.init_state(3))
        assert h.shape == (3, 7)
        assert set(cache) >= {"r", "z", "n"}

    def test_forward_matches_manual(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        x = rng.normal(size=(1, 2))
        h0 = rng.normal(size=(1, 3))
        h, _ = cell(x, h0)
        gi = x @ cell.w_ih.data.T + cell.b_ih.data
        gh = h0 @ cell.w_hh.data.T + cell.b_hh.data
        r = F.sigmoid(gi[:, :3] + gh[:, :3])
        z = F.sigmoid(gi[:, 3:6] + gh[:, 3:6])
        n = F.tanh(gi[:, 6:9] + r * gh[:, 6:9])
        np.testing.assert_allclose(h, (1 - z) * n + z * h0, atol=1e-12)

    def test_input_gradient_numeric(self, rng):
        cell = GRUCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        seed = rng.normal(size=(2, 4))
        _, cache = cell(x, h0)
        grad_x, _ = cell.backward(seed, cell.init_state(2), cache)

        def scalar(z):
            h, _ = cell(z, h0)
            return float(np.sum(h * seed))

        np.testing.assert_allclose(
            grad_x, numerical_gradient(scalar, x.copy()), atol=1e-5
        )

    def test_hidden_gradient_numeric(self, rng):
        cell = GRUCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        seed = rng.normal(size=(2, 4))
        _, cache = cell(x, h0)
        _, grad_h = cell.backward(seed, cell.init_state(2), cache)

        def scalar(z):
            h, _ = cell(x, z)
            return float(np.sum(h * seed))

        np.testing.assert_allclose(
            grad_h, numerical_gradient(scalar, h0.copy()), atol=1e-5
        )


class TestSequenceWrappers:
    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_output_shapes(self, cls, rng):
        net = cls(4, 6, num_layers=2, rng=rng)
        out, states = net(rng.normal(size=(5, 3, 4)))
        assert out.shape == (5, 3, 6)
        assert len(states) == 2

    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_bptt_input_gradient_numeric(self, cls, rng):
        net = cls(3, 4, rng=rng)
        x = rng.normal(size=(3, 2, 3))
        seed = rng.normal(size=(3, 2, 4))
        out, _ = net(x)
        grad = net.backward(seed)

        def scalar(z):
            o, _ = net(z)
            return float(np.sum(o * seed))

        np.testing.assert_allclose(
            grad, numerical_gradient(scalar, x.copy()), atol=1e-5
        )

    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_weight_gradient_accumulates_over_time(self, cls, rng):
        net = cls(2, 3, rng=rng)
        x = rng.normal(size=(4, 1, 2))
        out, _ = net(x)
        net.zero_grad()
        net.backward(np.ones_like(out))
        assert np.any(net.cells[0].w_hh.grad != 0)

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_sequence_equals_manual_unroll(self, cls, num_layers, rng):
        net = cls(3, 4, num_layers=num_layers, rng=rng)
        x = rng.normal(size=(3, 2, 3))
        out, final_states = net(x)
        layer_input = x
        for cell, final in zip(net.cells, final_states):
            state = cell.init_state(2)
            outputs = []
            for t in range(3):
                state, _ = cell(layer_input[t], state)
                outputs.append(cell.hidden(state))
            layer_input = np.stack(outputs)
            assert np.array_equal(np.asarray(final), np.asarray(state))
        assert np.array_equal(out, layer_input)

    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_backward_before_forward_raises(self, cls, rng):
        net = cls(2, 3, rng=rng)
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.zeros((2, 1, 3)))

    @pytest.mark.parametrize("num_layers", [0, -1])
    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_rejects_fewer_than_one_layer(self, cls, num_layers, rng):
        with pytest.raises(ValueError, match=f"{cls.__name__}.num_layers"):
            cls(2, 3, num_layers=num_layers, rng=rng)
