"""Tests for offline distillation (Eq. 1)."""

import numpy as np
import pytest

from repro.core import ApproximateLinear, distill_linear
from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLSTMCell,
)
from repro.core.distill import (
    distill_conv2d,
    distill_gru_cell,
    distill_lstm_cell,
    ridge_fit,
)
from repro.nn import Linear
from repro.nn.layers import Conv2d
from repro.nn.recurrent import GRUCell, LSTMCell


class TestRidgeFit:
    def test_exact_recovery_of_linear_map(self, rng):
        """When targets are exactly linear in features, the fit is exact."""
        features = rng.normal(size=(200, 6))
        w_true = rng.normal(size=(4, 6))
        b_true = rng.normal(size=4)
        targets = features @ w_true.T + b_true
        w, b, rmse = ridge_fit(features, targets, ridge=1e-10)
        np.testing.assert_allclose(w, w_true, atol=1e-8)
        np.testing.assert_allclose(b, b_true, atol=1e-8)
        assert rmse < 1e-8

    def test_rmse_reported_correctly(self, rng):
        features = rng.normal(size=(100, 3))
        targets = rng.normal(size=(100, 2))
        w, b, rmse = ridge_fit(features, targets)
        residual = features @ w.T + b - targets
        assert rmse == pytest.approx(np.sqrt(np.mean(residual**2)))

    def test_sample_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            ridge_fit(rng.normal(size=(10, 3)), rng.normal(size=(11, 2)))


class TestDistillLinear:
    def test_improves_over_random_init(self, rng):
        lin = Linear(64, 32, rng=rng)
        ap = ApproximateLinear(64, 32, 24, rng=rng)
        x = rng.normal(size=(500, 64))
        teacher = lin(x)
        before = float(np.mean((ap.forward_float(x) - teacher) ** 2))
        rmse = distill_linear(lin, ap, x)
        after = float(np.mean((ap.forward_float(x) - teacher) ** 2))
        assert after < before / 2
        # the reported RMSE is measured on the quantization-aware features
        # (float weights): recompute it the same way
        feats = ap.reduce(x, quantized=True)
        fit_mse = float(np.mean((feats @ ap.weight.T + ap.bias - teacher) ** 2))
        assert rmse == pytest.approx(np.sqrt(fit_mse), rel=1e-6)

    def test_higher_k_better_approximation(self, rng):
        lin = Linear(64, 16, rng=rng)
        x = rng.normal(size=(600, 64))
        rmses = []
        for k in (4, 16, 48):
            ap = ApproximateLinear(64, 16, k, rng=np.random.default_rng(3))
            rmses.append(distill_linear(lin, ap, x))
        assert rmses[0] > rmses[1] > rmses[2]

    def test_dimension_mismatch_rejected(self, rng):
        lin = Linear(64, 32, rng=rng)
        ap = ApproximateLinear(32, 32, 8, rng=rng)
        with pytest.raises(ValueError, match="input dimensions"):
            distill_linear(lin, ap, rng.normal(size=(10, 64)))

    def test_no_bias_teacher(self, rng):
        lin = Linear(32, 16, bias=False, rng=rng)
        ap = ApproximateLinear(32, 16, 16, rng=rng)
        rmse = distill_linear(lin, ap, rng.normal(size=(300, 32)))
        assert np.isfinite(rmse)


class TestDistillConv:
    def test_improves_over_random_init(self, rng):
        conv = Conv2d(3, 8, 3, padding=1, rng=rng)
        ap = ApproximateConv2d(3, 8, 3, reduced_features=12, padding=1, rng=rng)
        x = rng.normal(size=(8, 3, 10, 10))
        teacher = conv(x)
        before = float(np.mean((ap.forward_float(x) - teacher) ** 2))
        distill_conv2d(conv, ap, x)
        after = float(np.mean((ap.forward_float(x) - teacher) ** 2))
        assert after < before / 2

    def test_subsampling_cap(self, rng):
        conv = Conv2d(2, 4, 3, rng=rng)
        ap = ApproximateConv2d(2, 4, 3, reduced_features=6, rng=rng)
        rmse = distill_conv2d(
            conv, ap, rng.normal(size=(4, 2, 12, 12)), max_samples=50, rng=rng
        )
        assert np.isfinite(rmse)

    def test_geometry_mismatch(self, rng):
        conv = Conv2d(3, 8, 3, stride=2, rng=rng)
        ap = ApproximateConv2d(3, 8, 3, reduced_features=6, stride=1, rng=rng)
        with pytest.raises(ValueError, match="geometry"):
            distill_conv2d(conv, ap, rng.normal(size=(1, 3, 8, 8)))


class TestDistillRecurrent:
    def test_lstm_improves(self, rng):
        cell = LSTMCell(12, 16, rng=rng)
        ap = ApproximateLSTMCell(12, 16, 6, 8, rng=rng)
        seqs = rng.normal(size=(10, 8, 12))
        from repro.core.distill import _collect_recurrent_pairs

        xs, hs, pres = _collect_recurrent_pairs(cell, seqs)
        before = float(
            np.mean((ap.pre_activations(xs, hs, quantized=False) - pres) ** 2)
        )
        distill_lstm_cell(cell, ap, seqs)
        after = float(
            np.mean((ap.pre_activations(xs, hs, quantized=False) - pres) ** 2)
        )
        assert after < before / 5

    def test_gru_improves(self, rng):
        cell = GRUCell(10, 12, rng=rng)
        ap = ApproximateGRUCell(10, 12, 5, 6, rng=rng)
        seqs = rng.normal(size=(8, 8, 10))
        rmse = distill_gru_cell(cell, ap, seqs)
        assert np.isfinite(rmse)
        # pre-activations should correlate strongly with the teacher's
        from repro.core.distill import _collect_recurrent_pairs

        xs, hs, pres = _collect_recurrent_pairs(cell, seqs)
        approx = ap.pre_activations(xs, hs, quantized=False)
        corr = np.corrcoef(approx.reshape(-1), pres.reshape(-1))[0, 1]
        assert corr > 0.6

    def test_size_mismatch(self, rng):
        cell = LSTMCell(12, 16, rng=rng)
        ap = ApproximateLSTMCell(12, 8, 6, 4, rng=rng)
        with pytest.raises(ValueError, match="hidden sizes"):
            distill_lstm_cell(cell, ap, rng.normal(size=(4, 2, 12)))

    def test_unsupported_cell_type(self, rng):
        from repro.core.distill import _collect_recurrent_pairs

        with pytest.raises(TypeError, match="unsupported"):
            _collect_recurrent_pairs(object(), rng.normal(size=(2, 2, 2)))
