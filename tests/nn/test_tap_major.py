"""The tap-major conv lowering and running-max pooling against a row-major oracle.

The oracle is the earlier implementation: ``Conv2d`` as an ``im2col`` GEMM
with a row-major column gradient folded back by ``col2im``, and
``MaxPool2d`` as a per-channel ``im2col`` with an ``argmax``.  Trained
parameters are compared byte for byte, so the tap-major layers must keep
every element's summation order, not just its value.

The conv GEMMs are the oracle's with the operands' storage transposed.
OpenBLAS's blocked kernels sum each output element over the shared
dimension in the same order either way, so the conv cases are exact at
proxy scale: every GEMM dimension a multiple of 8 and ``M * N * K`` above
the small-matrix cut-off (``1e6`` on AVX-512 cores).  Below that cut-off,
or on ragged edges, the kernel is picked by the storage order and may
round differently; those shapes are held to rounding error only.
"""

import numpy as np
import pytest

from repro.models.proxies import proxy_alexnet, train_classifier
from repro.nn.layers import Conv2d, MaxPool2d
from repro.nn import functional as F
from repro.nn.data import GaussianMixtureImages


def ref_im2col(x, kernel, stride, padding):
    """Row-major lowering in two passes: tap blocks, then one 6-D transpose."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kh * kw)


def ref_col2im(cols, x_shape, kernel, stride, padding):
    """Adjoint of :func:`ref_im2col`, adding taps in ``(i, j)`` order."""
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[:, :, i, j]
    return padded[:, :, padding : padding + h, padding : padding + w]


class RefConv2d(Conv2d):
    """``Conv2d`` on row-major columns: ``cols @ W.T`` and a row-by-row bias sum."""

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        n, _, h, w = x.shape
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride, self.padding)
        out_w = F.conv_output_size(w, kw, self.stride, self.padding)
        cols = ref_im2col(x, self.kernel_size, self.stride, self.padding)
        self._cache = (cols, x.shape)
        return self.forward_columns(cols, (n, out_h, out_w))

    def backward(self, grad_out):
        cols, x_shape = self._cache
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat.T @ cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=0)
        self._cache = None
        return ref_col2im(grad_mat @ w_mat, x_shape, self.kernel_size, self.stride, self.padding)


class RefMaxPool2d(MaxPool2d):
    """``MaxPool2d`` as a per-channel ``im2col`` and ``argmax`` over a
    ``-inf``-padded input."""

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
        cols = ref_im2col(x.reshape(n * c, 1, h + 2 * p, w + 2 * p), (k, k), s, 0)
        argmax = cols.argmax(axis=1)
        self._cache = (argmax, cols.shape, (n, c, h, w))
        out = cols[np.arange(len(cols)), argmax]
        return out.reshape(n, c, *(F.conv_output_size(d, k, s, p) for d in (h, w)))

    def backward(self, grad_out):
        argmax, cols_shape, (n, c, h, w) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        grad_cols = np.zeros(cols_shape)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_out.reshape(-1)
        grad_x = ref_col2im(grad_cols, (n * c, 1, h + 2 * p, w + 2 * p), (k, k), s, 0)
        self._cache = None
        return grad_x.reshape(n, c, h + 2 * p, w + 2 * p)[:, :, p : p + h, p : p + w]


def forward_backward(module, x, grad_out):
    out = module(x)
    return out, module.backward(grad_out)


GRID = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


class TestLowering:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k,s,p", GRID)
    def test_im2col_and_col2im_match_row_major_oracle(self, rng, k, s, p, n):
        """Same values and memory layout: C-contiguous for a batch, the
        transposed (Fortran-ordered) view for one image."""
        x = rng.normal(size=(n, 3, 9, 8))
        cols, ref = F.im2col(x, (k, k), s, p), ref_im2col(x, (k, k), s, p)
        assert np.array_equal(cols, ref)
        assert cols.strides == ref.strides
        assert cols.flags.c_contiguous == (n > 1)
        grad = rng.normal(size=cols.shape)
        assert np.array_equal(
            F.col2im(grad, x.shape, (k, k), s, p), ref_col2im(grad, x.shape, (k, k), s, p)
        )

    def test_unfold_is_the_contiguous_transpose_of_im2col(self, rng):
        x = rng.normal(size=(3, 2, 7, 7))
        taps = F.unfold(x, (3, 3), 2, 1)
        assert taps.flags.c_contiguous
        assert np.array_equal(taps, F.im2col(x, (3, 3), 2, 1).T)

    def test_fold_adjoint_property(self, rng):
        """<unfold(x), y> == <x, fold(y)>."""
        x = rng.normal(size=(2, 3, 6, 6))
        taps = F.unfold(x, (3, 3), 2, 1)
        y = rng.normal(size=taps.shape)
        np.testing.assert_allclose(
            np.sum(taps * y), np.sum(x * F.fold(y, x.shape, (3, 3), 2, 1)), rtol=1e-10
        )


def conv_input(k, s, p):
    """A proxy-scale input: 32 channels and an ``N * H' * W'`` that keeps
    every GEMM of the grid above the small-matrix cut-off."""
    n, size = (16, 32) if k == 1 else (8, 16)
    return np.random.default_rng(k * 100 + s * 10 + p).normal(size=(n, 32, size, size))


def conv_pair(*args, **kwargs):
    """A ``Conv2d`` and its oracle with the same initial weights."""
    return (
        Conv2d(*args, **kwargs, rng=np.random.default_rng(0)),
        RefConv2d(*args, **kwargs, rng=np.random.default_rng(0)),
    )


class TestConvOracle:
    @pytest.mark.parametrize("k,s,p", GRID)
    def test_forward_and_gradients_bit_identical(self, k, s, p):
        x = conv_input(k, s, p)
        layer, ref = conv_pair(32, 32, k, stride=s, padding=p)
        grad_out = np.random.default_rng(1).normal(size=layer(x).shape)
        out, grad_x = forward_backward(layer, x, grad_out)
        ref_out, ref_grad_x = forward_backward(ref, x, grad_out)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad_x, ref_grad_x)
        assert np.array_equal(layer.weight.grad, ref.weight.grad)
        assert np.array_equal(layer.bias.grad, ref.bias.grad)

    def test_grad_layout_does_not_change_bits(self):
        """A channel-major gradient (as a ReLU after this conv returns it)
        gives the bits of an NCHW-contiguous one: the bias gradient is a
        row-by-row sum over ``(N*H'*W', C_out)`` either way."""
        x = conv_input(3, 1, 1)
        grad_out = np.random.default_rng(2).normal(size=(32, 8, 16, 16)).transpose(1, 0, 2, 3)
        results = []
        for module, grad in zip(conv_pair(32, 32, 3, padding=1), (grad_out, grad_out.copy())):
            grad_x = forward_backward(module, x, grad)[1]
            results.append((grad_x, module.weight.grad, module.bias.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k,s,p", [(1, 1, 0), (3, 2, 1), (5, 1, 2)])
    def test_small_and_ragged_gemms_agree_to_rounding(self, rng, k, s, p):
        x = rng.normal(size=(2, 3, 9, 8))
        layer, ref = conv_pair(3, 5, k, stride=s, padding=p)
        grad_out = rng.normal(size=layer(x).shape)
        for got, want in zip(forward_backward(layer, x, grad_out), forward_backward(ref, x, grad_out)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, ref.weight.grad, rtol=1e-12, atol=1e-12)
        assert np.array_equal(layer.bias.grad, ref.bias.grad)


POOLS = [(2, 2, 0), (3, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0), (3, 3, 1)]


class TestMaxPoolOracle:
    @pytest.mark.parametrize("k,s,p", POOLS)
    def test_forward_and_gradient_bit_identical(self, rng, k, s, p):
        x = rng.normal(size=(2, 3, 9, 8))
        grad_out = rng.normal(size=MaxPool2d(k, s, p)(x).shape)
        out, grad_x = forward_backward(MaxPool2d(k, s, p), x, grad_out)
        ref_out, ref_grad_x = forward_backward(RefMaxPool2d(k, s, p), x, grad_out)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad_x, ref_grad_x)

    @pytest.mark.parametrize("k,s,p", POOLS)
    def test_ties_route_to_first_max(self, rng, k, s, p):
        """Constant input: every tap ties, and the gradient goes to the
        first in row-major tap order, as ``argmax`` picks it."""
        x = np.full((1, 2, 7, 7), 0.5)
        grad_out = rng.normal(size=MaxPool2d(k, s, p)(x).shape)
        _, grad_x = forward_backward(MaxPool2d(k, s, p), x, grad_out)
        _, ref_grad_x = forward_backward(RefMaxPool2d(k, s, p), x, grad_out)
        assert np.array_equal(grad_x, ref_grad_x)

    def test_signed_zero_tie_keeps_first_element(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2)
        out = MaxPool2d(2)(x)
        assert np.signbit(out).all()

    def test_nan_propagates(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        x[0, 0, 1, 1] = x[0, 0, 2, 3] = np.nan
        out = MaxPool2d(2)(x)
        assert np.array_equal(out, RefMaxPool2d(2)(x), equal_nan=True)
        assert np.isnan(out[0, 0]).tolist() == [[True, False], [False, True]]

    def test_padding_never_wins(self):
        """Padding is ``-inf``: an all-negative border window returns its
        own maximum, not a zero from the padding."""
        x = -np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        out = MaxPool2d(3, stride=1, padding=1)(x)
        np.testing.assert_array_equal(
            out[0, 0], [[-1, -1, -2], [-1, -1, -2], [-4, -4, -5]]
        )


class TestGeometryValidation:
    @pytest.mark.parametrize(
        "build,label",
        [
            (lambda: Conv2d(1, 1, 0), "Conv2d.kernel_size"),
            (lambda: Conv2d(1, 1, (3, 0)), "Conv2d.kernel_size"),
            (lambda: Conv2d(1, 1, 3, stride=0), "Conv2d.stride"),
            (lambda: Conv2d(1, 1, 3, padding=-1), "Conv2d.padding"),
            (lambda: MaxPool2d(0), "MaxPool2d.kernel_size"),
            (lambda: MaxPool2d(2, stride=0), "MaxPool2d.stride"),
            (lambda: MaxPool2d(2, padding=-1), "MaxPool2d.padding"),
            (lambda: MaxPool2d(3, padding=2), "MaxPool2d.padding"),
        ],
    )
    def test_rejects_invalid_geometry(self, build, label):
        with pytest.raises(ValueError, match=label):
            build()

    def test_accepts_half_kernel_padding(self):
        assert MaxPool2d(3, padding=1).padding == 1
        assert Conv2d(1, 1, 1, padding=3).padding == 3


def test_training_with_oracle_layers_is_byte_equal():
    """Three Adam steps of ``proxy_alexnet`` give the same parameter bytes
    with the oracle conv and pool layers swapped in."""
    trained = []
    for swap in (False, True):
        rng = np.random.default_rng(11)
        model = proxy_alexnet(num_classes=4, rng=rng)
        if swap:
            for layer in model.features:
                if isinstance(layer, (Conv2d, MaxPool2d)):
                    layer.__class__ = RefConv2d if isinstance(layer, Conv2d) else RefMaxPool2d
        train_classifier(model, GaussianMixtureImages(num_classes=4), steps=3, batch_size=8, rng=rng)
        trained.append([p.data.tobytes() for p in model.parameters()])
    assert trained[0] == trained[1]
