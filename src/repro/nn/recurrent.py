"""Recurrent cells (LSTM, GRU) and multi-step wrappers with full BPTT.

The paper evaluates memory-bound RNN workloads (LSTM/GRU language models
and GNMT).  Dual-module processing for an LSTM constructs approximate
modules for both the input-to-hidden and hidden-to-hidden matrices
(Section II-B), so the cells here expose those matrices individually
(``w_ih``, ``w_hh``) in the conventional gate-stacked layout.

Gate ordering follows the PyTorch convention:

- LSTM: ``[input, forget, cell(g), output]`` stacked along the row axis.
- GRU:  ``[reset, update, new]`` stacked along the row axis.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.init import default_rng, uniform_fan_in
from repro.nn.module import Module, Parameter
from repro.validation import require_range

__all__ = ["LSTMCell", "GRUCell", "LSTM", "GRU"]


class _RecurrentCell(Module):
    """Gate-stacked weights and the state protocol shared by both cells.

    ``w_ih`` has shape ``(G*H, D)`` and ``w_hh`` has shape ``(G*H, H)`` for
    the cell's ``num_gates`` G.  A cell's *state* is whatever
    :meth:`init_state` returns (``(h, c)`` for the LSTM, ``h`` for the
    GRU); :meth:`hidden` reads ``h`` out of it, and the one-step
    ``backward`` takes and returns state-shaped gradients, so the stacks
    and dual-module cells never look inside a state.  By default the
    state is ``h`` alone.
    """

    num_gates: int
    #: zero-initialised ``(G*H,)`` bias parameters, registered after the weights
    bias_names: tuple[str, ...]

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rows = self.num_gates * hidden_size
        self.w_ih = Parameter(uniform_fan_in((rows, input_size), rng))
        self.w_hh = Parameter(uniform_fan_in((rows, hidden_size), rng))
        for name in self.bias_names:
            setattr(self, name, Parameter(np.zeros(rows)))

    def init_state(self, batch: int):
        """Zero state for a batch."""
        return np.zeros((batch, self.hidden_size))

    @staticmethod
    def hidden(state):
        """The hidden output ``h`` of a state."""
        return state

    def unroll(
        self, xs: np.ndarray, state=None, step=None
    ) -> tuple[np.ndarray, object, list]:
        """Run ``step`` over a ``(T, B, ...)`` sequence ``xs`` from ``state``.

        ``step(x_t, state) -> (state, aux)`` defaults to this cell (``aux``
        is then its cache) and ``state`` to :meth:`init_state` zeros.

        Returns:
            ``(outputs, final_state, auxes)``: the hidden outputs
            ``(T, B, hidden_size)``, the last state and the per-step auxes.
        """
        step = step if step is not None else self
        if state is None:
            state = self.init_state(xs.shape[1])
        outputs = np.empty((xs.shape[0], xs.shape[1], self.hidden_size))
        auxes = []
        for t in range(xs.shape[0]):
            state, aux = step(xs[t], state)
            outputs[t] = self.hidden(state)
            auxes.append(aux)
        return outputs, state, auxes

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.input_size}, {self.hidden_size})"


class LSTMCell(_RecurrentCell):
    """Single LSTM step.

    ``w_ih`` has shape ``(4H, D)`` and ``w_hh`` has shape ``(4H, H)``; each
    is the vertical stack of the four gate matrices in i, f, g, o order.
    The state is ``(h, c)``.
    """

    num_gates = 4
    bias_names = ("b",)

    def forward(
        self, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]
    ) -> tuple[tuple[np.ndarray, np.ndarray], dict]:
        """Run one step.

        Args:
            x: input of shape ``(batch, input_size)``.
            state: ``(h, c)`` with shapes ``(batch, hidden_size)``.

        Returns:
            ``((h_next, c_next), cache)`` where ``cache`` holds the values
            :meth:`backward` needs and the gate pre-activations ``pre``.
        """
        h_prev, c_prev = state
        hs = self.hidden_size
        pre = x @ self.w_ih.data.T + h_prev @ self.w_hh.data.T + self.b.data
        i = F.sigmoid(pre[:, 0 * hs : 1 * hs])
        f = F.sigmoid(pre[:, 1 * hs : 2 * hs])
        g = F.tanh(pre[:, 2 * hs : 3 * hs])
        o = F.sigmoid(pre[:, 3 * hs : 4 * hs])
        c_next = f * c_prev + i * g
        tanh_c = F.tanh(c_next)
        h_next = o * tanh_c
        cache = {
            "x": x,
            "h_prev": h_prev,
            "c_prev": c_prev,
            "pre": pre,
            "i": i,
            "f": f,
            "g": g,
            "o": o,
            "tanh_c": tanh_c,
        }
        return (h_next, c_next), cache

    def backward(
        self,
        grad_h: np.ndarray,
        grad_state: tuple[np.ndarray, np.ndarray],
        cache: dict,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Back-propagate one step.

        Args:
            grad_h: gradient w.r.t. ``h_next`` from outside the recurrence
                (the layer above or the loss).
            grad_state: gradient w.r.t. ``(h_next, c_next)`` flowing from
                the next step (:meth:`init_state` zeros at the last step).
            cache: the cache returned by :meth:`forward`.

        Returns:
            ``(grad_x, (grad_h_prev, grad_c_prev))``.
        """
        grad_h = grad_h + grad_state[0]
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        tanh_c = cache["tanh_c"]
        dc = grad_state[1] + grad_h * o * F.tanh_grad(tanh_c)
        d_o = grad_h * tanh_c * F.sigmoid_grad(o)
        d_i = dc * g * F.sigmoid_grad(i)
        d_f = dc * cache["c_prev"] * F.sigmoid_grad(f)
        d_g = dc * i * F.tanh_grad(g)
        d_pre = np.concatenate([d_i, d_f, d_g, d_o], axis=1)
        self.w_ih.grad += d_pre.T @ cache["x"]
        self.w_hh.grad += d_pre.T @ cache["h_prev"]
        self.b.grad += d_pre.sum(axis=0)
        grad_x = d_pre @ self.w_ih.data
        grad_h_prev = d_pre @ self.w_hh.data
        grad_c_prev = dc * f
        return grad_x, (grad_h_prev, grad_c_prev)

    def init_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero ``(h, c)`` state for a batch."""
        shape = (batch, self.hidden_size)
        return np.zeros(shape), np.zeros(shape)

    @staticmethod
    def hidden(state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The hidden output ``h`` of an ``(h, c)`` state."""
        return state[0]


class GRUCell(_RecurrentCell):
    """Single GRU step with PyTorch-style separate input/hidden biases.

    ``w_ih`` has shape ``(3H, D)`` and ``w_hh`` has shape ``(3H, H)``,
    stacked in r, z, n order.  Separate biases ``b_ih``/``b_hh`` are kept
    because the candidate gate applies the reset gate to the *hidden*
    contribution only: ``n = tanh(W_in x + b_in + r * (W_hn h + b_hn))``.
    The state is ``h`` itself.
    """

    num_gates = 3
    bias_names = ("b_ih", "b_hh")

    def forward(
        self, x: np.ndarray, h_prev: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """Run one step; returns ``(h_next, cache)``.

        ``cache["pre"]`` holds the gate pre-activations, the candidate's
        including the reset-gate modulation.
        """
        hs = self.hidden_size
        gi = x @ self.w_ih.data.T + self.b_ih.data
        gh = h_prev @ self.w_hh.data.T + self.b_hh.data
        rz = gi[:, : 2 * hs] + gh[:, : 2 * hs]
        r = F.sigmoid(rz[:, :hs])
        z = F.sigmoid(rz[:, hs:])
        hn = gh[:, 2 * hs : 3 * hs]
        n_pre = gi[:, 2 * hs : 3 * hs] + r * hn
        n = F.tanh(n_pre)
        h_next = (1.0 - z) * n + z * h_prev
        cache = {
            "x": x,
            "h_prev": h_prev,
            "pre": np.concatenate([rz, n_pre], axis=1),
            "r": r,
            "z": z,
            "n": n,
            "hn": hn,
        }
        return h_next, cache

    def backward(
        self, grad_h: np.ndarray, grad_state: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """Back-propagate one step; returns ``(grad_x, grad_h_prev)``.

        ``grad_h`` comes from outside the recurrence and ``grad_state``
        from the next step, as in :meth:`LSTMCell.backward`.
        """
        grad_h = grad_h + grad_state
        r, z, n, hn = cache["r"], cache["z"], cache["n"], cache["hn"]
        h_prev = cache["h_prev"]
        d_n = grad_h * (1.0 - z) * F.tanh_grad(n)
        d_z = grad_h * (h_prev - n) * F.sigmoid_grad(z)
        d_r = d_n * hn * F.sigmoid_grad(r)
        d_gi = np.concatenate([d_r, d_z, d_n], axis=1)
        d_gh = np.concatenate([d_r, d_z, d_n * r], axis=1)
        self.w_ih.grad += d_gi.T @ cache["x"]
        self.w_hh.grad += d_gh.T @ h_prev
        self.b_ih.grad += d_gi.sum(axis=0)
        self.b_hh.grad += d_gh.sum(axis=0)
        grad_x = d_gi @ self.w_ih.data
        grad_h_prev = d_gh @ self.w_hh.data + grad_h * z
        return grad_x, grad_h_prev


class _RecurrentStack(Module):
    """Multi-step, (optionally) multi-layer recurrence over ``(T, B, D)``.

    Forward caches every step so :meth:`backward` can run full BPTT,
    summing the loss over all time steps exactly as the paper's
    approximate-module training does (Section II-B).  Subclasses name
    their ``cell_class``.
    """

    cell_class: type[_RecurrentCell]

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        require_range(f"{type(self).__name__}.num_layers", num_layers, ge=1)
        rng = rng if rng is not None else default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = [
            self.cell_class(input_size if i == 0 else hidden_size, hidden_size, rng)
            for i in range(num_layers)
        ]
        for i, cell in enumerate(self.cells):
            setattr(self, f"cell{i}", cell)
        self._caches: list[list[dict]] | None = None

    def forward(
        self, x: np.ndarray, state: list | None = None
    ) -> tuple[np.ndarray, list]:
        """Run the whole sequence.

        Args:
            x: input of shape ``(T, B, input_size)``.
            state: optional per-layer initial states (each cell's
                :meth:`~_RecurrentCell.init_state` shape).

        Returns:
            ``(outputs, final_states)`` where ``outputs`` has shape
            ``(T, B, hidden_size)``.
        """
        layer_input = np.asarray(x, dtype=np.float64)
        if state is None:
            state = [cell.init_state(layer_input.shape[1]) for cell in self.cells]
        caches, final_states = [], []
        for li, cell in enumerate(self.cells):
            layer_input, final, layer_caches = cell.unroll(layer_input, state[li])
            caches.append(layer_caches)
            final_states.append(final)
        self._caches = caches
        return layer_input, final_states

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """BPTT given ``grad_out`` of shape ``(T, B, hidden_size)``.

        Returns the gradient w.r.t. the input sequence.
        """
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        seq_len, batch = grad_out.shape[0], grad_out.shape[1]
        grad_layer = grad_out
        for cell, caches in zip(reversed(self.cells), reversed(self._caches)):
            grad_inputs = np.empty((seq_len, batch, cell.input_size))
            grad_state = cell.init_state(batch)
            for t in range(seq_len - 1, -1, -1):
                grad_inputs[t], grad_state = cell.backward(
                    grad_layer[t], grad_state, caches[t]
                )
            grad_layer = grad_inputs
        self._caches = None
        return grad_layer

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.input_size}, {self.hidden_size}, "
            f"num_layers={self.num_layers})"
        )


class LSTM(_RecurrentStack):
    """Multi-layer LSTM over ``(T, B, D)`` input; states are ``(h, c)``."""

    cell_class = LSTMCell


class GRU(_RecurrentStack):
    """Multi-layer GRU over ``(T, B, D)`` input; states are ``h``."""

    cell_class = GRUCell
