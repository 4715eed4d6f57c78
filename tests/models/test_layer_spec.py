"""Tests for the layer-spec IR."""

import pytest

from repro.models.layer_spec import ConvSpec, FCSpec, ModelSpec, RNNSpec


class TestConvSpec:
    def test_geometry(self):
        spec = ConvSpec("c", 3, 64, kernel=11, stride=4, padding=2, in_h=224, in_w=224)
        assert spec.out_h == spec.out_w == 55

    def test_macs(self):
        spec = ConvSpec("c", 2, 4, kernel=3, stride=1, padding=0, in_h=5, in_w=5)
        # 3x3 output, receptive 2*9=18, 4 channels
        assert spec.macs == 4 * 3 * 3 * 18

    def test_element_counts(self):
        spec = ConvSpec("c", 3, 8, kernel=3, stride=1, padding=1, in_h=4, in_w=4)
        assert spec.input_elements == 3 * 16
        assert spec.output_elements == 8 * 16
        assert spec.weight_elements == 8 * 3 * 9
        assert spec.receptive_field == 27

    def test_str(self):
        spec = ConvSpec("conv1", 3, 8, 3, 1, 1, 8, 8)
        assert "conv1" in str(spec)


class TestFCSpec:
    def test_counts(self):
        spec = FCSpec("fc", 100, 10)
        assert spec.macs == 1000
        assert spec.weight_elements == 1000
        assert spec.output_elements == 10


class TestRNNSpec:
    def test_lstm_gate_count(self):
        spec = RNNSpec("l", "lstm", 64, 128, seq_len=10)
        assert spec.num_gates == 4
        assert spec.weight_elements == 4 * 128 * (64 + 128)
        assert spec.macs == spec.weight_elements * 10

    def test_gru_gate_count(self):
        spec = RNNSpec("g", "gru", 64, 128, seq_len=5)
        assert spec.num_gates == 3
        assert spec.outputs_per_step == 3 * 128

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="lstm"):
            RNNSpec("x", "transformer", 10, 10, 5)


class TestModelSpec:
    def test_filters_by_type(self):
        model = ModelSpec(
            "m",
            "cnn",
            [ConvSpec("c1", 3, 8, 3, 1, 1, 8, 8), FCSpec("fc", 10, 4)],
        )
        assert len(model.conv_layers) == 1
        assert model.conv_layers[0].name == "c1"
        assert model.rnn_layers == []

    def test_totals(self):
        c = ConvSpec("c1", 3, 8, 3, 1, 1, 8, 8)
        f = FCSpec("fc", 10, 4)
        model = ModelSpec("m", "cnn", [c, f])
        assert model.total_macs == c.macs + f.macs
        assert model.total_weight_elements == c.weight_elements + f.weight_elements

    def test_layer_lookup(self):
        model = ModelSpec("m", "cnn", [FCSpec("fc", 2, 2)])
        assert model.layer("fc").out_features == 2
        with pytest.raises(KeyError, match="no layer"):
            model.layer("missing")

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="domain"):
            ModelSpec("m", "gnn", [])
