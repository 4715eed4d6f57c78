"""Feed-forward layers with explicit forward/backward passes.

Each layer caches exactly what its backward pass needs during ``forward``
and exposes ``backward(grad_out) -> grad_in`` that also accumulates
parameter gradients.  Layers therefore must not be re-entered between a
forward and the matching backward call.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.init import default_rng, kaiming_uniform
from repro.nn.module import Module, Parameter
from repro.validation import check_range, require_range

__all__ = [
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "Embedding",
    "Flatten",
    "ReLU",
    "Sequential",
]


class Linear(Module):
    """Fully-connected layer ``y = x @ W.T + b``.

    This is the paper's feed-forward (FF) "accurate module": ``y = Wx + b``
    with ``W`` of shape ``(n, d)`` (Section II).  Inputs are batched row
    vectors of shape ``(batch, d)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects (batch, {self.in_features}), got {x.shape}"
            )
        self._cache_x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError("backward called before forward")
        x = self._cache_x
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        self._cache_x = None
        return grad_out @ self.weight.data

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2-D convolution implemented as an im2col lowering and a GEMM.

    The im2col lowering is exactly how the paper extends dual-module
    processing from FF to CONV layers (Section II-B), so the dual-module
    code in :mod:`repro.core` reuses the same column representation
    (:meth:`forward_columns`).  Training runs on its tap-major transpose
    (:func:`~repro.nn.functional.unfold`); outputs and input gradients are
    NCHW views of channel-major arrays.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        check_range(self, "kernel_size", "stride", ge=1)
        check_range(self, "padding", ge=0)
        kh, kw = kernel_size
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kh, kw), rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride, self.padding)
        out_w = F.conv_output_size(w, kw, self.stride, self.padding)
        taps = F.unfold(x, self.kernel_size, self.stride, self.padding)
        self._cache = (taps, x.shape)
        out = self.weight.data.reshape(self.out_channels, -1) @ taps
        if self.bias is not None:
            out += self.bias.data[:, None]
        return out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)

    def forward_columns(
        self, cols: np.ndarray, geometry: tuple[int, int, int]
    ) -> np.ndarray:
        """The GEMM half of :meth:`forward`, on already-lowered columns.

        Args:
            cols: ``im2col`` columns of the input, shape
                ``(N * H' * W', C * kh * kw)``; only read.
            geometry: the output's ``(N, H', W')``.

        Returns:
            The ``(N, out_channels, H', W')`` output.  Unlike
            :meth:`forward`, nothing is recorded for :meth:`backward`.
        """
        n, out_h, out_w = geometry
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        if cols.shape != (n * out_h * out_w, w_mat.shape[1]):
            raise ValueError(
                f"expected columns of shape {(n * out_h * out_w, w_mat.shape[1])}, "
                f"got {cols.shape}"
            )
        out = cols @ w_mat.T
        if self.bias is not None:
            out += self.bias.data
        return (
            out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        taps, x_shape = self._cache
        grad_t = grad_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_t @ taps.T).reshape(self.weight.data.shape)
        if self.bias is not None:
            # row by row over (N*H'*W', C_out): a sum along grad_t's
            # contiguous rows would be pairwise and change the bits
            self.bias.grad += grad_t.T.copy().sum(axis=0)
        self._cache = None
        return F.fold(w_mat.T @ grad_t, x_shape, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class MaxPool2d(Module):
    """Max pooling over the ``k * k`` strided tap views of the input: a
    running maximum that records the first tap, in row-major order, holding
    each maximum; backward routes the gradient there.  Outputs keep the
    input's memory order, input gradients are channel-major NCHW views.  A
    NaN wins its window; ``-inf`` padding never does."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        check_range(self, "kernel_size", "stride", ge=1)
        # a wider border leaves windows wholly inside the padding
        require_range("MaxPool2d.padding", padding, ge=0, le=kernel_size // 2)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        taps = F.tap_views(x, (self.kernel_size,) * 2, self.stride, self.padding, -np.inf)
        out = taps[0].copy(order="K")  # in the input's memory order
        first = np.zeros_like(out, dtype=np.min_scalar_type(len(taps) - 1))
        for tap, view in enumerate(taps[1:], start=1):
            above = (view > out) | np.isnan(view)
            np.copyto(out, view, where=above)
            first[above] = tap
        self._cache = (first, x.shape)
        return out.transpose(1, 0, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        first, (n, c, h, w) = self._cache
        p = self.padding
        grad_x = np.zeros((c, n, h + 2 * p, w + 2 * p)).transpose(1, 0, 2, 3)
        for tap, view in enumerate(F.tap_views(grad_x, (self.kernel_size,) * 2, self.stride)):
            view += np.where(first == tap, grad_out.transpose(1, 0, 2, 3), 0.0)
        self._cache = None
        return grad_x[:, :, p : p + h, p : p + w]

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size}, stride={self.stride})"


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim))
        )
        self._cache_ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise ValueError("token id out of range")
        self._cache_ids = ids
        return self.weight.data[ids]

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate gradients into the embedding table (no input grad)."""
        if self._cache_ids is None:
            raise RuntimeError("backward called before forward")
        flat_ids = self._cache_ids.reshape(-1)
        flat_grad = grad_out.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        self._cache_ids = None
        return None

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Flatten(Module):
    """Flatten all dimensions after the batch axis."""

    def __init__(self):
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        shape, self._shape = self._shape, None
        return grad_out.reshape(shape)


class ReLU(Module):
    """ReLU layer; its insensitive region is ``y < 0`` (paper Fig. 1)."""

    def __init__(self):
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = np.asarray(x, dtype=np.float64)
        return F.relu(self._cache)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out * F.relu_grad(self._cache)
        self._cache = None
        return grad


class Sequential(Module):
    """Run sub-modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self):
        return iter(self.layers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
