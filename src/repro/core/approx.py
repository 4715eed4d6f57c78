"""Approximate (QDR) modules: quantized + dimension-reduced layer twins.

Each approximate module pairs with one accurate layer and computes a cheap
estimate of its pre-activations:

1. quantize the input activations (INT4 by default, matching the
   Speculator's truncating quantizer),
2. reduce dimension with a ternary random projection (additions only),
3. multiply with the low-precision QDR weight matrix (small ``k`` inner
   dimension), add the learned bias.

The weights ``W'`` and bias ``b'`` are learned offline by distillation
(:mod:`repro.core.distill`).  ``forward_float`` bypasses quantization and
is used during training; ``forward`` emulates the quantized inference path.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import im2col_cached
from repro.core.projection import TernaryRandomProjection
from repro.nn import functional as F
from repro.quant import int_range, quantize_linear

__all__ = [
    "ApproximateLinear",
    "ApproximateConv2d",
    "ApproximateLSTMCell",
    "ApproximateGRUCell",
]


_NON_FINITE = "cannot quantize non-finite input (NaN or inf)"


def _quantize_dequantize(x: np.ndarray, bits: int) -> np.ndarray:
    """Round-trip a float tensor through ``bits``-wide symmetric quantization.

    Byte-identical to ``quantize_linear(x, bits).to_float()`` in one float
    buffer: the scale is computed exactly as :func:`quantize_linear` does
    (``max(x.max(), -x.min())`` is ``max|x|``), and the integer payload's
    round trip is replaced by ``rint``/``clip`` in place.  The closing
    ``+= 0.0`` maps ``-0.0`` to ``+0.0``, as the int payload does for
    values that round to zero from below.

    Raises:
        ValueError: if ``x`` holds NaN or inf.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = int_range(bits)
    if not x.size:
        return x.copy()
    top, bottom = x.max(), x.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise ValueError(_NON_FINITE)
    max_abs = max(float(top), -float(bottom))
    scale = max_abs / hi if max_abs > 0 else 1.0
    if scale == 0.0:  # subnormal max_abs underflows, as in quantize_linear
        scale = 1.0
    q = x / scale
    np.rint(q, out=q)
    np.clip(q, lo, hi, out=q)
    q *= scale
    q += 0.0
    return q


def _quantize_dequantize_rows(w: np.ndarray, bits: int) -> np.ndarray:
    """Per-row symmetric quantization round trip for 2-D weight matrices.

    Each output row gets its own scale (max-abs calibration).  Distilled
    QDR weights have strongly row-dependent magnitudes, and a per-output
    scale costs the hardware nothing extra: it folds into the per-neuron
    dequantization / threshold comparison the Speculator already performs.

    Raises:
        ValueError: if ``w`` is not 2-D or holds NaN or inf.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {w.shape}")
    _, hi = int_range(bits)
    max_abs = np.max(np.abs(w), axis=1, keepdims=True)
    if not np.isfinite(max_abs).all():
        raise ValueError(_NON_FINITE)
    scales = np.where(max_abs > 0, max_abs / hi, 1.0)
    q = np.clip(np.rint(w / scales), -hi - 1, hi)
    return q * scales


class ApproximateLinear:
    """QDR twin of a ``Linear(in_features -> out_features)`` layer.

    Attributes:
        projection: the fixed ternary projection ``P`` (d -> k).
        weight: QDR weight master copy ``W'`` of shape ``(n, k)`` (float;
            quantized on the fly according to ``weight_bits``).
        bias: learned bias ``b'`` of shape ``(n,)``.
        weight_bits / input_bits: quantization widths (paper default INT4).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        reduced_features: int,
        rng: np.random.Generator | None = None,
        weight_bits: int = 4,
        input_bits: int = 4,
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.reduced_features = reduced_features
        self.projection = TernaryRandomProjection(in_features, reduced_features, rng)
        self.weight = rng.normal(
            0.0, 1.0 / np.sqrt(reduced_features), size=(out_features, reduced_features)
        )
        self.bias = np.zeros(out_features)
        self.weight_bits = weight_bits
        self.input_bits = input_bits

    # -- execution -----------------------------------------------------------

    def reduce(self, x: np.ndarray, quantized: bool = True) -> np.ndarray:
        """Quantize (optionally) and project the input: the QDR front end."""
        x = np.asarray(x, dtype=np.float64)
        if quantized:
            x = _quantize_dequantize(x, self.input_bits)
        return self.projection.apply(x)

    def quantized_weight(self) -> np.ndarray:
        """The weight as seen by the INT-``weight_bits`` datapath.

        Quantization is per output row (see
        :func:`_quantize_dequantize_rows`).
        """
        return _quantize_dequantize_rows(self.weight, self.weight_bits)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference path: ``y' = W'_q (P x_q) + b'``."""
        reduced = self.reduce(x, quantized=True)
        return reduced @ self.quantized_weight().T + self.bias

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        """Full-precision path used during distillation training."""
        reduced = self.reduce(x, quantized=False)
        return reduced @ self.weight.T + self.bias

    __call__ = forward

    # -- cost accounting -------------------------------------------------------

    def macs_per_vector(self) -> int:
        """INT4 multiply-accumulates per input vector (systolic-array work)."""
        return self.out_features * self.reduced_features

    def additions_per_vector(self) -> int:
        """Additions per input vector spent in the projection adder trees."""
        return self.projection.addition_count()

    def parameter_count(self) -> int:
        """Scalar parameters of the QDR module (weights + bias)."""
        return self.weight.size + self.bias.size

    def __repr__(self) -> str:
        return (
            f"ApproximateLinear(d={self.in_features}, k={self.reduced_features}, "
            f"n={self.out_features}, INT{self.weight_bits})"
        )


class ApproximateConv2d:
    """QDR twin of a ``Conv2d`` layer via the im2col lowering.

    The receptive-field dimension ``d = C * kh * kw`` is projected down to
    ``k``; the QDR weight has shape ``(out_channels, k)``.  Spatial
    geometry (stride/padding) mirrors the accurate layer.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        reduced_features: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        weight_bits: int = 4,
        input_bits: int = 4,
    ):
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        patch_dim = in_channels * kernel_size[0] * kernel_size[1]
        self.inner = ApproximateLinear(
            patch_dim,
            out_channels,
            reduced_features,
            rng=rng,
            weight_bits=weight_bits,
            input_bits=input_bits,
        )

    @property
    def reduced_features(self) -> int:
        """The reduced receptive-field dimension ``k``."""
        return self.inner.reduced_features

    def lower(
        self, x: np.ndarray, fingerprint: str | None = None
    ) -> tuple[np.ndarray, tuple[int, int, int]]:
        """The ``im2col`` columns of ``x`` and the output's ``(N, H', W')``.

        ``fingerprint`` is ``x``'s content fingerprint if the caller has
        already taken it (see :func:`~repro.core.cache.im2col_cached`).
        """
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride, self.padding)
        out_w = F.conv_output_size(w, kw, self.stride, self.padding)
        # threshold sweeps re-run the same calibration batch through every
        # candidate; the lowering is memoized on the input's content
        # fingerprint (read-only shared buffer -- never written below)
        cols = im2col_cached(
            x, self.kernel_size, self.stride, self.padding, fingerprint=fingerprint
        )
        return cols, (n, out_h, out_w)

    def _unlower(self, y: np.ndarray, geometry: tuple[int, int, int]) -> np.ndarray:
        n, out_h, out_w = geometry
        return y.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def forward_columns(
        self, cols: np.ndarray, geometry: tuple[int, int, int]
    ) -> np.ndarray:
        """Quantized inference path on columns from :meth:`lower`."""
        return self._unlower(self.inner.forward(cols), geometry)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference path; returns ``(N, out_channels, H', W')``."""
        return self.forward_columns(*self.lower(x))

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        """Full-precision path used during distillation training."""
        cols, geometry = self.lower(x)
        return self._unlower(self.inner.forward_float(cols), geometry)

    __call__ = forward

    def __repr__(self) -> str:
        return (
            f"ApproximateConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, k={self.reduced_features})"
        )


class _ApproximateRecurrentBase:
    """Shared QDR plumbing for recurrent cells.

    RNN cells have an input-to-hidden and a hidden-to-hidden matrix; the
    paper constructs "two low-dimensional and low-precision weight
    matrices" (Section II-B).  We keep one ternary projection per input
    stream and one stacked QDR gate matrix per stream.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_gates: int,
        reduced_input: int,
        reduced_hidden: int,
        rng: np.random.Generator | None = None,
        weight_bits: int = 4,
        input_bits: int = 4,
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_gates = num_gates
        self.proj_x = TernaryRandomProjection(input_size, reduced_input, rng)
        self.proj_h = TernaryRandomProjection(hidden_size, reduced_hidden, rng)
        rows = num_gates * hidden_size
        self.w_ih = rng.normal(0.0, 1.0 / np.sqrt(reduced_input), (rows, reduced_input))
        self.w_hh = rng.normal(0.0, 1.0 / np.sqrt(reduced_hidden), (rows, reduced_hidden))
        self.bias = np.zeros(rows)
        self.weight_bits = weight_bits
        self.input_bits = input_bits

    @property
    def reduced_input(self) -> int:
        """Reduced input dimension ``k_x``."""
        return self.proj_x.out_features

    @property
    def reduced_hidden(self) -> int:
        """Reduced hidden dimension ``k_h``."""
        return self.proj_h.out_features

    def _weights(self, quantized: bool) -> tuple[np.ndarray, np.ndarray]:
        if quantized:
            return (
                _quantize_dequantize_rows(self.w_ih, self.weight_bits),
                _quantize_dequantize_rows(self.w_hh, self.weight_bits),
            )
        return self.w_ih, self.w_hh

    def pre_activations(
        self, x: np.ndarray, h: np.ndarray, quantized: bool = True
    ) -> np.ndarray:
        """Approximate stacked gate pre-activations, shape ``(batch, G*H)``."""
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        if quantized:
            x = _quantize_dequantize(x, self.input_bits)
            h = _quantize_dequantize(h, self.input_bits)
        rx = self.proj_x.apply(x)
        rh = self.proj_h.apply(h)
        w_ih, w_hh = self._weights(quantized)
        return rx @ w_ih.T + rh @ w_hh.T + self.bias

    def macs_per_step(self) -> int:
        """INT4 MACs per time step (both streams, all gates)."""
        rows = self.num_gates * self.hidden_size
        return rows * (self.reduced_input + self.reduced_hidden)

    def additions_per_step(self) -> int:
        """Projection additions per time step."""
        return self.proj_x.addition_count() + self.proj_h.addition_count()

    def parameter_count(self) -> int:
        """Scalar parameters of the QDR module."""
        return self.w_ih.size + self.w_hh.size + self.bias.size


class ApproximateLSTMCell(_ApproximateRecurrentBase):
    """QDR twin of an LSTM cell (gates stacked i, f, g, o)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        reduced_input: int,
        reduced_hidden: int,
        rng: np.random.Generator | None = None,
        weight_bits: int = 4,
        input_bits: int = 4,
    ):
        super().__init__(
            input_size,
            hidden_size,
            num_gates=4,
            reduced_input=reduced_input,
            reduced_hidden=reduced_hidden,
            rng=rng,
            weight_bits=weight_bits,
            input_bits=input_bits,
        )

    def __repr__(self) -> str:
        return (
            f"ApproximateLSTMCell({self.input_size}, {self.hidden_size}, "
            f"k_x={self.reduced_input}, k_h={self.reduced_hidden})"
        )


class ApproximateGRUCell(_ApproximateRecurrentBase):
    """QDR twin of a GRU cell (gates stacked r, z, n).

    Note: the approximate candidate gate uses the *additive* form
    ``W_in x + W_hn h`` (no reset-gate modulation); the gating interaction
    is second-order for speculation purposes and the distillation target is
    the true pre-activation, so the learned ``W'`` absorbs the average
    effect.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        reduced_input: int,
        reduced_hidden: int,
        rng: np.random.Generator | None = None,
        weight_bits: int = 4,
        input_bits: int = 4,
    ):
        super().__init__(
            input_size,
            hidden_size,
            num_gates=3,
            reduced_input=reduced_input,
            reduced_hidden=reduced_hidden,
            rng=rng,
            weight_bits=weight_bits,
            input_bits=input_bits,
        )

    def __repr__(self) -> str:
        return (
            f"ApproximateGRUCell({self.input_size}, {self.hidden_size}, "
            f"k_x={self.reduced_input}, k_h={self.reduced_hidden})"
        )
