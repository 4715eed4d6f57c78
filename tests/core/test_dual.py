"""Tests for the online dual-module layers."""

import numpy as np
import pytest

from repro.core import ApproximateLinear, DualModuleLinear, distill_linear
from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLSTMCell,
)
from repro.core.distill import (
    distill_conv2d,
    distill_gru_cell,
    distill_lstm_cell,
)
from repro.core.dual import (
    DualModuleConv2d,
    DualModuleGRUCell,
    DualModuleLSTMCell,
    _receptive_nonzeros,
)
from repro.nn import Linear
from repro.nn.layers import Conv2d
from repro.nn.recurrent import GRUCell, LSTMCell
from repro.nn import functional as F


@pytest.fixture
def linear_pair(rng):
    lin = Linear(32, 16, rng=rng)
    ap = ApproximateLinear(32, 16, 12, rng=rng)
    distill_linear(lin, ap, rng.normal(size=(400, 32)))
    return lin, ap


@pytest.fixture
def conv_pair(rng):
    conv = Conv2d(3, 8, 3, padding=1, rng=rng)
    ap = ApproximateConv2d(3, 8, 3, reduced_features=9, padding=1, rng=rng)
    distill_conv2d(conv, ap, rng.normal(size=(6, 3, 8, 8)))
    return conv, ap


class TestDualModuleLinear:
    def test_relu_insensitive_outputs_zeroed(self, linear_pair, rng):
        """CNN-path semantics: insensitive outputs are set to zero."""
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "relu", threshold=0.0)
        out, report = dual(rng.normal(size=(5, 32)))
        omap = report.switching_map
        assert np.all(out[omap == 0] == 0.0)

    def test_relu_sensitive_outputs_accurate(self, linear_pair, rng):
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "relu", threshold=0.0)
        x = rng.normal(size=(5, 32))
        out, report = dual(x)
        reference = F.relu(lin(x))
        omap = report.switching_map.astype(bool)
        np.testing.assert_allclose(out[omap], reference[omap], atol=1e-12)

    def test_tanh_mixture_semantics(self, linear_pair, rng):
        """RNN-path semantics: insensitive outputs keep approximate values."""
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "tanh", threshold=1.0)
        x = rng.normal(size=(5, 32))
        out, report = dual(x)
        y_approx = ap.forward(x)
        omap = report.switching_map.astype(bool)
        np.testing.assert_allclose(
            out[~omap], np.tanh(y_approx)[~omap], atol=1e-12
        )

    def test_extreme_threshold_everything_sensitive(self, linear_pair, rng):
        """theta = -inf for ReLU makes every output accurate."""
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "relu", threshold=-np.inf)
        x = rng.normal(size=(4, 32))
        out, report = dual(x)
        assert report.savings.sensitive_fraction == 1.0
        np.testing.assert_allclose(out, F.relu(lin(x)), atol=1e-12)

    def test_savings_accounting_identities(self, linear_pair, rng):
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "relu", threshold=0.0)
        x = rng.normal(size=(6, 32))
        _, report = dual(x)
        s = report.savings
        assert s.dense_macs == 6 * 16 * 32
        assert s.executed_macs == int(report.switching_map.sum()) * 32
        assert s.outputs_total == 6 * 16
        assert s.outputs_sensitive == int(report.switching_map.sum())
        assert s.speculation_macs == 6 * ap.macs_per_vector()

    def test_imap_reduces_executed_macs(self, linear_pair, rng):
        lin, ap = linear_pair
        dual = DualModuleLinear(lin, ap, "relu", threshold=0.0)
        x = rng.normal(size=(4, 32))
        imap = (rng.random((4, 32)) > 0.5).astype(np.uint8)
        _, dense_report = dual(x)
        _, sparse_report = dual(x, imap=imap)
        assert sparse_report.savings.executed_macs < dense_report.savings.executed_macs

    def test_corrected_map_present_for_relu_only(self, linear_pair, rng):
        lin, ap = linear_pair
        x = rng.normal(size=(2, 32))
        _, relu_rep = DualModuleLinear(lin, ap, "relu", 0.0)(x)
        _, tanh_rep = DualModuleLinear(lin, ap, "tanh", 1.0)(x)
        assert relu_rep.corrected_map is not None
        assert tanh_rep.corrected_map is None

    def test_dimension_mismatch_rejected(self, rng):
        lin = Linear(32, 16, rng=rng)
        ap = ApproximateLinear(32, 8, 4, rng=rng)
        with pytest.raises(ValueError, match="output dimensions"):
            DualModuleLinear(lin, ap, "relu", 0.0)


class TestDualModuleConv2d:
    def test_output_shape_and_zero_fill(self, conv_pair, rng):
        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.0)
        x = rng.normal(size=(2, 3, 8, 8))
        out, report = dual(x)
        assert out.shape == (2, 8, 8, 8)
        assert np.all(out[report.switching_map == 0] == 0.0)
        assert np.all(out >= 0.0)  # post-ReLU

    def test_sensitive_outputs_match_accurate(self, conv_pair, rng):
        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.0)
        x = rng.normal(size=(1, 3, 8, 8))
        out, report = dual(x)
        ref = F.relu(conv(x))
        m = report.switching_map.astype(bool)
        np.testing.assert_allclose(out[m], ref[m], atol=1e-12)

    def test_corrected_map_equals_nonzero_outputs(self, conv_pair, rng):
        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.0)
        out, report = dual(rng.normal(size=(1, 3, 8, 8)))
        np.testing.assert_array_equal(
            report.corrected_map, (out > 0).astype(np.uint8)
        )

    def test_higher_threshold_fewer_sensitive(self, conv_pair, rng):
        conv, ap = conv_pair
        x = rng.normal(size=(2, 3, 8, 8))
        _, low = DualModuleConv2d(conv, ap, threshold=-1.0)(x)
        _, high = DualModuleConv2d(conv, ap, threshold=1.0)(x)
        assert high.savings.outputs_sensitive < low.savings.outputs_sensitive

    def test_imap_accounting(self, conv_pair, rng):
        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.0)
        x = rng.normal(size=(1, 3, 8, 8))
        imap = (rng.random((1, 3, 8, 8)) > 0.6).astype(np.uint8)
        _, rep_dense = dual(x)
        _, rep_imap = dual(x, imap=imap)
        assert rep_imap.savings.executed_macs < rep_dense.savings.executed_macs
        # switching decisions identical: accounting-only difference
        np.testing.assert_array_equal(
            rep_dense.switching_map, rep_imap.switching_map
        )

    def test_channel_mismatch(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        ap = ApproximateConv2d(3, 4, 3, reduced_features=5, rng=rng)
        with pytest.raises(ValueError, match="channel"):
            DualModuleConv2d(conv, ap, 0.0)

    def test_input_channel_mismatch(self, conv_pair, rng):
        dual = DualModuleConv2d(*conv_pair, threshold=0.0)
        with pytest.raises(ValueError, match="expected 3 channels"):
            dual(rng.normal(size=(1, 4, 8, 8)))

    def test_speculate_execute_equals_forward(self, conv_pair, rng):
        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.1)
        x = rng.normal(size=(2, 3, 8, 8))
        imap = (x > 0).astype(np.uint8)
        cols, y_approx, key = dual.speculate(x)
        assert y_approx.tobytes() == ap.forward(x).tobytes()
        out, report = dual.execute(x, cols, y_approx, imap=imap, key=key)
        ref_out, ref_report = dual(x, imap=imap)
        assert out.tobytes() == ref_out.tobytes()
        assert report.savings == ref_report.savings

    def test_lowered_once_per_forward(self, conv_pair, rng, monkeypatch):
        """One ``im2col_cached`` call feeds both modules; the accurate
        layer never lowers the input again."""
        import repro.core.approx as approx_module

        conv, ap = conv_pair
        dual = DualModuleConv2d(conv, ap, threshold=0.0)
        calls = []
        real = approx_module.im2col_cached

        def spy(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        def no_forward(x):
            raise AssertionError("the accurate Conv2d re-lowered its input")

        monkeypatch.setattr(approx_module, "im2col_cached", spy)
        monkeypatch.setattr(conv, "forward", no_forward)
        x = rng.normal(size=(2, 3, 8, 8))
        out, _ = dual(x, imap=(x > 0).astype(np.uint8))
        assert calls == [((3, 3), 1, 1)]
        ref = F.relu(Conv2d.forward(conv, x))
        m = out > 0
        assert out[m].tobytes() == ref[m].tobytes()


class TestMalformedImap:
    """A malformed IMap used to price executed MACs silently wrong."""

    @pytest.fixture
    def conv_dual(self, rng):
        conv = Conv2d(4, 8, 3, padding=1, rng=rng)
        ap = ApproximateConv2d(4, 8, 3, reduced_features=9, padding=1, rng=rng)
        distill_conv2d(conv, ap, rng.normal(size=(4, 4, 6, 6)))
        return DualModuleConv2d(conv, ap, threshold=0.0)

    def test_conv_wrong_shape_rejected(self, conv_dual, rng):
        x = rng.normal(size=(1, 4, 6, 6))
        with pytest.raises(ValueError, match="imap shape"):
            conv_dual(x, imap=np.ones((1, 1, 6, 6), dtype=np.uint8))
        with pytest.raises(ValueError, match="imap shape"):
            conv_dual(x, imap=np.ones((4, 6, 6), dtype=np.uint8))

    @pytest.mark.parametrize("value", [7, 2, -1, 0.5, np.nan])
    def test_conv_non_binary_rejected(self, conv_dual, rng, value):
        x = rng.normal(size=(1, 4, 6, 6))
        imap = np.ones(x.shape)
        imap[0, 1, 2, 3] = value
        with pytest.raises(ValueError, match="outside"):
            conv_dual(x, imap=imap)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_conv_valid_dtypes_accepted(self, conv_dual, rng, dtype):
        x = np.maximum(rng.normal(size=(2, 4, 6, 6)), 0.0)
        _, report = conv_dual(x, imap=(x != 0).astype(dtype))
        _, ref = conv_dual(x, imap=(x != 0).astype(np.uint8))
        assert report.savings == ref.savings
        assert report.savings.executed_macs <= report.savings.dense_macs

    def test_linear_wrong_shape_rejected(self, linear_pair, rng):
        dual = DualModuleLinear(*linear_pair, "relu", threshold=0.0)
        x = rng.normal(size=(4, 32))
        # same size, other shape: a reshape used to accept it
        with pytest.raises(ValueError, match="imap shape"):
            dual(x, imap=np.ones((8, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="imap shape"):
            dual(x, imap=np.ones((4, 31), dtype=np.uint8))

    def test_linear_non_binary_rejected(self, linear_pair, rng):
        dual = DualModuleLinear(*linear_pair, "relu", threshold=0.0)
        x = rng.normal(size=(4, 32))
        with pytest.raises(ValueError, match="outside"):
            dual(x, imap=np.full((4, 32), 7))


class TestReceptiveNonzeros:
    """The integer IMap count equals the float im2col row sums it replaced."""

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_float_im2col(self, rng, kernel, stride, padding):
        imap = (rng.random((2, 3, 9, 8)) > 0.4).astype(np.uint8)
        cols = F.im2col(imap.astype(np.float64), (kernel, kernel), stride, padding)
        ref = cols.sum(axis=1)
        ours = _receptive_nonzeros(imap, (kernel, kernel), stride, padding)
        assert ours.dtype == np.int64
        np.testing.assert_array_equal(ours.reshape(-1), ref)

    def test_all_ones_interior_is_full_receptive_field(self):
        ours = _receptive_nonzeros(np.ones((1, 4, 6, 6), dtype=bool), (3, 3), 1, 1)
        assert ours[0, 1:-1, 1:-1].min() == 4 * 9
        assert ours[0, 0, 0] == 4 * 4  # corner: padding contributes nothing


class TestDualModuleLSTM:
    @pytest.fixture
    def lstm_pair(self, rng):
        cell = LSTMCell(12, 10, rng=rng)
        ap = ApproximateLSTMCell(12, 10, 6, 5, rng=rng)
        distill_lstm_cell(cell, ap, rng.normal(size=(8, 8, 12)))
        return cell, ap

    def test_infinite_threshold_equals_accurate(self, lstm_pair, rng):
        """theta = inf on saturating gates: |y'| > theta never fires, so
        every output is sensitive and the dual cell equals the teacher."""
        cell, ap = lstm_pair
        dual = DualModuleLSTMCell(cell, ap, threshold=np.inf)
        x = rng.normal(size=(3, 12))
        state = cell.init_state(3)
        (h_dual, c_dual), report = dual(x, state)
        (h_ref, c_ref), _ = cell(x, state)
        assert report.savings.sensitive_fraction == 1.0
        np.testing.assert_allclose(h_dual, h_ref, atol=1e-12)
        np.testing.assert_allclose(c_dual, c_ref, atol=1e-12)

    def test_tiny_threshold_mostly_approximate(self, lstm_pair, rng):
        """theta ~ 0: every |y'| exceeds it, so everything is approximate."""
        cell, ap = lstm_pair
        dual = DualModuleLSTMCell(cell, ap, threshold=1e-9)
        x = rng.normal(size=(3, 12))
        _, report = dual(x, cell.init_state(3))
        assert report.savings.sensitive_fraction < 0.1

    def test_per_gate_thresholds(self, lstm_pair, rng):
        cell, ap = lstm_pair
        thetas = {"i": 100.0, "f": 1e-9, "g": 100.0, "o": 100.0}
        dual = DualModuleLSTMCell(cell, ap, thetas)
        _, report = dual(rng.normal(size=(4, 12)), cell.init_state(4))
        assert np.all(report.gate_maps["i"] == 1)  # theta=100: all sensitive
        assert report.gate_maps["f"].mean() < 0.2  # theta~0: all approximate

    def test_missing_gate_threshold(self, lstm_pair):
        cell, ap = lstm_pair
        with pytest.raises(ValueError, match="missing thresholds"):
            DualModuleLSTMCell(cell, ap, {"i": 0.0})

    def test_unknown_gate_threshold(self, lstm_pair):
        cell, ap = lstm_pair
        thetas = {"i": 0.5, "f": 0.5, "g": 0.5, "o": 0.5, "I": 0.5}
        with pytest.raises(ValueError, match=r"unknown gates \['I'\]"):
            DualModuleLSTMCell(cell, ap, thetas)

    def test_weight_read_savings(self, lstm_pair, rng):
        cell, ap = lstm_pair
        dual = DualModuleLSTMCell(cell, ap, threshold=1.0)
        _, report = dual(rng.normal(size=(1, 12)), cell.init_state(1))
        s = report.savings
        assert s.weight_reads == s.outputs_sensitive * (12 + 10)
        assert s.dense_weight_reads == 4 * 10 * (12 + 10)
        assert s.weight_reads <= s.dense_weight_reads

    def test_run_sequence(self, lstm_pair, rng):
        cell, ap = lstm_pair
        dual = DualModuleLSTMCell(cell, ap, threshold=1.0)
        xs = rng.normal(size=(6, 2, 12))
        outputs, state, reports = dual.run_sequence(xs)
        assert outputs.shape == (6, 2, 10)
        assert len(reports) == 6

    def test_approximation_quality_degrades_gracefully(self, lstm_pair, rng):
        """Hidden-state error grows as theta shrinks (more approximate),
        but stays bounded because gate outputs are bounded."""
        cell, ap = lstm_pair
        xs = rng.normal(size=(5, 4, 12))
        ref, _, _ = DualModuleLSTMCell(cell, ap, np.inf).run_sequence(xs)
        errors = []
        for theta in (3.0, 1.5, 0.5):  # decreasing = more approximate
            out, _, _ = DualModuleLSTMCell(cell, ap, theta).run_sequence(xs)
            errors.append(float(np.mean((out - ref) ** 2)))
        assert errors[0] <= errors[-1] + 1e-9
        assert errors[-1] < 1.0  # bounded: tanh outputs live in [-1, 1]


class TestDualModuleGRU:
    @pytest.fixture
    def gru_pair(self, rng):
        cell = GRUCell(10, 8, rng=rng)
        ap = ApproximateGRUCell(10, 8, 5, 4, rng=rng)
        distill_gru_cell(cell, ap, rng.normal(size=(8, 8, 10)))
        return cell, ap

    def test_infinite_threshold_equals_accurate(self, gru_pair, rng):
        cell, ap = gru_pair
        dual = DualModuleGRUCell(cell, ap, threshold=np.inf)
        x = rng.normal(size=(3, 10))
        h0 = cell.init_state(3)
        h_dual, report = dual(x, h0)
        h_ref, _ = cell(x, h0)
        assert report.savings.sensitive_fraction == 1.0
        np.testing.assert_allclose(h_dual, h_ref, atol=1e-12)

    def test_gate_maps_shapes(self, gru_pair, rng):
        cell, ap = gru_pair
        dual = DualModuleGRUCell(cell, ap, threshold=1.0)
        _, report = dual(rng.normal(size=(4, 10)), cell.init_state(4))
        assert set(report.gate_maps) == {"r", "z", "n"}
        assert report.switching_map.shape == (4, 3 * 8)

    def test_run_sequence(self, gru_pair, rng):
        cell, ap = gru_pair
        dual = DualModuleGRUCell(cell, ap, threshold=1.0)
        outputs, h, reports = dual.run_sequence(rng.normal(size=(5, 2, 10)))
        assert outputs.shape == (5, 2, 8)
        assert len(reports) == 5
