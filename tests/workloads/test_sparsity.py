"""Tests for the synthetic sparsity/workload generators."""

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.models.layer_spec import ConvSpec, RNNSpec
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads
from repro.workloads.sparsity import CnnLayerWorkload, RnnLayerWorkload


@pytest.fixture
def conv_spec():
    return ConvSpec("c", 8, 16, kernel=3, stride=1, padding=1, in_h=12, in_w=12)


@pytest.fixture
def workload(conv_spec):
    sp = SparsityModel(seed=3, first_layer_dense=False)
    return sp.cnn_layer(conv_spec, layer_index=1)


class TestSparsityModel:
    def test_deterministic_per_layer(self, conv_spec):
        a = SparsityModel(seed=1).cnn_layer(conv_spec, 2)
        b = SparsityModel(seed=1).cnn_layer(conv_spec, 2)
        np.testing.assert_array_equal(a.omap, b.omap)
        np.testing.assert_array_equal(a.imap, b.imap)

    def test_different_layers_differ(self, conv_spec):
        sp = SparsityModel(seed=1, first_layer_dense=False)
        a, b = sp.cnn_layer(conv_spec, 1), sp.cnn_layer(conv_spec, 2)
        assert not np.array_equal(a.omap, b.omap)

    def test_mean_sensitive_fraction_calibrated(self, conv_spec):
        sp = SparsityModel(cnn_sensitive_mean=0.4, seed=0, first_layer_dense=False)
        fracs = [sp.cnn_layer(conv_spec, i).sensitive_fraction for i in range(1, 30)]
        assert abs(np.mean(fracs) - 0.4) < 0.05

    def test_first_layer_dense(self, conv_spec):
        sp = SparsityModel(first_layer_dense=True)
        wl = sp.cnn_layer(conv_spec, 0)
        assert wl.sensitive_fraction == 1.0
        assert wl.input_density == 1.0

    def test_rnn_counts_in_range(self):
        spec = RNNSpec("l", "lstm", 64, 64, seq_len=20)
        wl = SparsityModel(rnn_sensitive_mean=0.45).rnn_layer(spec, 0)
        assert wl.sensitive_counts.shape == (20, 4)
        assert abs(wl.sensitive_fraction - 0.45) < 0.1


NAN, INF = float("nan"), float("inf")


class TestSparsityModelValidation:
    """Out-of-range fields fail at construction, naming the field, rather
    than mid-simulation in numpy (or, for a NaN mean, not at all)."""

    @staticmethod
    def _rejects(field, value):
        with pytest.raises(ValueError, match=f"SparsityModel.{field} "):
            SparsityModel(**{field: value})

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5, NAN, INF, -INF])
    def test_cnn_sensitive_mean(self, value):
        self._rejects("cnn_sensitive_mean", value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5, NAN, INF, -INF])
    def test_cnn_input_density(self, value):
        self._rejects("cnn_input_density", value)

    @pytest.mark.parametrize("value", [0.0, -1.0, NAN, INF, -INF])
    def test_cnn_channel_concentration(self, value):
        self._rejects("cnn_channel_concentration", value)

    @pytest.mark.parametrize("value", [0.0, -1.0, NAN, INF, -INF])
    def test_cnn_input_concentration(self, value):
        self._rejects("cnn_input_concentration", value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, NAN, INF, -INF])
    def test_rnn_sensitive_mean(self, value):
        self._rejects("rnn_sensitive_mean", value)

    @pytest.mark.parametrize("value", [-0.01, NAN, INF, -INF])
    def test_rnn_step_std(self, value):
        self._rejects("rnn_step_std", value)

    @pytest.mark.parametrize("value", [-1, 1.0, 2.5, NAN, INF, True, "3"])
    def test_seed(self, value):
        self._rejects("seed", value)

    def test_boundary_values_accepted(self):
        SparsityModel(rnn_sensitive_mean=0.0, rnn_step_std=0.0, seed=0)
        SparsityModel(rnn_sensitive_mean=1.0, seed=np.int64(7))
        SparsityModel(cnn_sensitive_mean=1e-9, cnn_input_density=1 - 1e-9)

    def test_nan_mean_no_longer_prices_an_empty_map(self):
        with pytest.raises(ValueError, match="cnn_sensitive_mean"):
            cnn_workloads(get_model_spec("alexnet"), SparsityModel(cnn_sensitive_mean=NAN))


class TestCnnLayerWorkload:
    def test_shape_validation(self, conv_spec):
        with pytest.raises(ValueError, match="omap shape"):
            CnnLayerWorkload(
                conv_spec,
                omap=np.zeros((1, 2, 3), dtype=np.uint8),
                imap=np.zeros((8, 12, 12), dtype=np.uint8),
            )

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    @pytest.mark.parametrize("which", ["omap", "imap"])
    def test_non_binary_map_rejected(self, conv_spec, which, bad):
        maps = {
            "omap": np.zeros((16, 12, 12)),
            "imap": np.ones((8, 12, 12)),
        }
        maps[which][0, 1, 2] = bad
        with pytest.raises(ValueError, match=f"{which} holds values outside"):
            CnnLayerWorkload(conv_spec, **maps)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float64])
    def test_binary_maps_of_any_dtype_accepted(self, conv_spec, dtype):
        wl = CnnLayerWorkload(
            conv_spec,
            omap=np.ones((16, 12, 12), dtype=dtype),
            imap=np.zeros((8, 12, 12), dtype=dtype),
        )
        assert wl.sensitive_fraction == 1.0
        assert wl.input_density == 0.0

    def test_position_costs_match_direct_count(self, workload):
        costs = workload.position_costs()
        spec = workload.spec
        assert costs.shape == (spec.out_h, spec.out_w)
        # verify one position by direct counting (padding=1, kernel=3)
        padded = np.pad(workload.imap, ((0, 0), (1, 1), (1, 1)))
        direct = padded[:, 0:3, 0:3].sum()
        assert costs[0, 0] == direct

    def test_position_cycles_dense_uniform(self, workload):
        cycles = workload.position_cycles(cols_per_row=16, use_imap=False)
        receptive = workload.spec.receptive_field
        assert np.all(cycles == -(-receptive // 16))

    def test_position_cycles_imap_bounded(self, workload):
        """Slice-max cycles lie between mean-slice and dense cost."""
        cols = 16
        imap_cycles = workload.position_cycles(cols, use_imap=True)
        dense = -(-workload.spec.receptive_field // cols)
        mean_cost = workload.position_costs().reshape(-1) / cols
        assert np.all(imap_cycles <= dense)
        assert np.all(imap_cycles >= np.floor(mean_cost))

    def test_channel_cycles_os_identity(self, workload):
        """Under OS, channel cycles == sensitive count x dense per-position."""
        cycles = workload.channel_cycles(16, True, False)
        dense = -(-workload.spec.receptive_field // 16)
        counts = workload.omap.reshape(workload.spec.out_channels, -1).sum(axis=1)
        np.testing.assert_array_equal(cycles, counts * dense)

    def test_tile_cycles_sum_to_channel_cycles(self, workload):
        tiles = workload.channel_tile_cycles(16, True, True, tile_positions=8)
        totals = workload.channel_cycles(16, True, True)
        np.testing.assert_array_equal(tiles.sum(axis=1), totals)

    def test_channel_macs_dense_identity(self, workload):
        macs = workload.channel_macs(False, False)
        spec = workload.spec
        per_channel = spec.out_h * spec.out_w * spec.receptive_field
        np.testing.assert_allclose(macs, per_channel)

    def test_channel_macs_monotone(self, workload):
        """IOS executes no more than OS, which executes no more than dense."""
        dense = workload.channel_macs(False, False).sum()
        os_macs = workload.channel_macs(True, False).sum()
        ios_macs = workload.channel_macs(True, True).sum()
        assert ios_macs <= os_macs <= dense

    def test_switch_counts(self, workload):
        positions = workload.spec.out_h * workload.spec.out_w
        counts = workload.channel_tile_switch_counts(positions)
        np.testing.assert_array_equal(
            counts[:, 0], workload.omap.sum(axis=(1, 2))
        )

    def test_tile_switch_counts_sum(self, workload):
        tiles = workload.channel_tile_switch_counts(8)
        np.testing.assert_array_equal(
            tiles.sum(axis=1), workload.omap.sum(axis=(1, 2))
        )


class TestColsPerRowValidation:
    """A non-positive PE-row width is an error on both paths, never a
    ``ZeroDivisionError`` or silently all-zero (negative) cycles."""

    @pytest.mark.parametrize("cols", [0, -2])
    @pytest.mark.parametrize("use_imap", [True, False])
    def test_position_cycles(self, workload, cols, use_imap):
        with pytest.raises(ValueError, match="cols_per_row must be positive"):
            workload.position_cycles(cols, use_imap)

    @pytest.mark.parametrize("cols", [0, -2])
    def test_position_cycles_fast(self, workload, cols):
        with pytest.raises(ValueError, match="cols_per_row must be positive"):
            workload.position_cycles_fast(cols)

    @pytest.mark.parametrize("cols", [0, -2])
    @pytest.mark.parametrize("use_output_switching", [True, False])
    def test_channel_cycles(self, workload, cols, use_output_switching):
        with pytest.raises(ValueError, match="cols_per_row must be positive"):
            workload.channel_cycles(cols, use_output_switching, False)

    @pytest.mark.parametrize("cols", [0, -2])
    @pytest.mark.parametrize("use_imap", [True, False])
    def test_channel_tile_cycles(self, workload, cols, use_imap):
        with pytest.raises(ValueError, match="cols_per_row must be positive"):
            workload.channel_tile_cycles(cols, True, use_imap, 8)

    @pytest.mark.parametrize("cols", [0, -2])
    @pytest.mark.parametrize("use_imap", [True, False])
    def test_channel_tile_cycles_fast(self, workload, cols, use_imap):
        with pytest.raises(ValueError, match="cols_per_row must be positive"):
            workload.channel_tile_cycles_fast(cols, use_imap, 8)

    def test_tile_positions_still_checked(self, workload):
        with pytest.raises(ValueError, match="tile_positions must be positive"):
            workload.channel_tile_cycles(16, True, True, 0)
        with pytest.raises(ValueError, match="tile_positions must be positive"):
            workload.channel_tile_cycles_fast(16, True, 0)


class TestModelWorkloads:
    def test_cnn_workload_per_conv_layer(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        assert len(wl) == len(spec.conv_layers)
        assert wl[0].sensitive_fraction == 1.0  # first layer dense

    def test_rnn_workload_per_layer(self):
        spec = get_model_spec("lstm")
        wl = rnn_workloads(spec)
        assert len(wl) == 2
        assert wl[0].sensitive_counts.shape == (35, 4)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="not a CNN"):
            cnn_workloads(get_model_spec("lstm"))
        with pytest.raises(ValueError, match="not an RNN"):
            rnn_workloads(get_model_spec("alexnet"))


class TestRnnWorkloadValidation:
    def test_count_bounds(self):
        spec = RNNSpec("l", "lstm", 8, 8, seq_len=2)
        with pytest.raises(ValueError, match="out of"):
            RnnLayerWorkload(spec, np.full((2, 4), 100))
        # NaN slips past the range comparison, 3.5 would truncate to 3
        for value in (np.nan, 3.5):
            with pytest.raises(ValueError, match="must hold integers"):
                RnnLayerWorkload(spec, np.full((2, 4), value))

    def test_shape_check(self):
        spec = RNNSpec("l", "gru", 8, 8, seq_len=2)
        with pytest.raises(ValueError, match="shape"):
            RnnLayerWorkload(spec, np.zeros((2, 4), dtype=np.int64))
