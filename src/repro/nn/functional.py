"""Stateless tensor functions: activations, the conv lowering, softmax.

These are the numerical primitives the rest of :mod:`repro.nn` (and the
dual-module algorithm in :mod:`repro.core`) are built from.  All functions
take and return ``numpy.ndarray`` and never mutate their inputs.

The conv lowering is tap-major: :func:`unfold` writes each kernel tap as
one contiguous row, :func:`fold` adds them back, and ``Conv2d`` and the
pooling layers train on them.  :func:`im2col`/:func:`col2im`, the
row-major layout :mod:`repro.core` and the simulator read, transpose them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "sigmoid_grad",
    "tanh",
    "tanh_grad",
    "softmax",
    "log_softmax",
    "tap_views",
    "unfold",
    "fold",
    "im2col",
    "col2im",
    "conv_output_size",
    "activation_by_name",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU w.r.t. its pre-activation input ``x``."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-x))``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False)


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid expressed in terms of its *output* ``y``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def tanh_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh expressed in terms of its *output* ``y``."""
    return 1.0 - y * y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of softmax along ``axis``, computed without overflow."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def tap_views(
    x: np.ndarray, kernel: tuple[int, int], stride: int = 1, padding: int = 0, value: float = 0.0
) -> list[np.ndarray]:
    """The strided ``(C, N, H', W')`` view under each kernel tap, in
    row-major tap order, of NCHW ``x`` bordered by ``padding`` cells of
    ``value``.  Views of ``x`` itself when unpadded."""
    out_h, out_w = (conv_output_size(d, k, stride, padding) for d, k in zip(x.shape[2:], kernel))
    x = x.transpose(1, 0, 2, 3)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2), constant_values=value)
    rows = [slice(i, i + stride * out_h, stride) for i in range(kernel[0])]
    cols = [slice(j, j + stride * out_w, stride) for j in range(kernel[1])]
    return [x[:, :, r, c] for r in rows for c in cols]


def unfold(
    x: np.ndarray, kernel: tuple[int, int], stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Tap-major lowering of NCHW ``x`` (the paper's CONV-to-GEMM, Section
    II-B): the C-contiguous ``(C * kh * kw, N * H' * W')`` matrix whose row
    ``(c, i, j)`` is tap ``(i, j)`` of channel ``c`` at every output position."""
    views = tap_views(x, kernel, stride, padding)
    return np.stack(views, axis=1).reshape(x.shape[1] * len(views), -1)


def fold(
    taps: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`unfold`: add each tap's ``(C, N, H', W')`` block
    back onto the image in row-major tap order.  Returns an NCHW view of a
    channel-major array."""
    n, c, h, w = x_shape
    p = padding
    image = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=taps.dtype).transpose(1, 0, 2, 3)
    views = tap_views(image, kernel, stride)
    for view, tap in zip(views, taps.reshape(c, len(views), -1).swapaxes(0, 1)):
        view += tap.reshape(view.shape)
    return image[:, :, p : p + h, p : p + w]


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int = 1, padding: int = 0
) -> np.ndarray:
    """:func:`unfold` transposed to ``(N * H' * W', C * kh * kw)``: C-contiguous
    for a batch, the free view for one image (the layouts callers' GEMMs saw)."""
    taps = unfold(x, kernel, stride, padding)
    if len(x) == 1:
        return taps.T
    cols = np.empty(taps.shape[::-1], dtype=taps.dtype)
    # transpose through narrow contiguous blocks: rows a power-of-two
    # N*H'*W' apart share cache sets, 248-wide (1984-byte) rows do not
    for start in range(0, len(cols), 248):
        cols[start : start + 248] = taps[:, start : start + 248].copy().T
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: :func:`fold` of the transposed columns."""
    return fold(cols.T, x_shape, kernel, stride, padding)


_ACTIVATIONS = {
    "relu": relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "identity": lambda x: x,
}


def activation_by_name(name: str):
    """Look up an activation function by name.

    Supported names: ``relu``, ``sigmoid``, ``tanh``, ``identity`` -- the
    set of nonlinearities DUET's Multi-Function Unit implements (paper
    Section III-B, Step 3).
    """
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None
