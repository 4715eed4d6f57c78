"""Tests for the model zoo against published shape/size facts."""

import pytest

from repro.models import MODEL_REGISTRY, get_model_spec
from repro.models.zoo import (
    alexnet,
    gnmt,
    gru_lm,
    lstm_lm,
    resnet18,
    resnet50,
    vgg16,
)


class TestAlexNet:
    def test_layer_count(self):
        spec = alexnet()
        assert len(spec.conv_layers) == 5
        assert len(spec.layers) == 8

    def test_parameter_count_matches_published(self):
        # AlexNet (torchvision) has ~61M parameters
        assert 57e6 < alexnet().total_weight_elements < 63e6

    def test_macs_match_published(self):
        # ~0.7 GMACs per 224x224 image
        assert 0.6e9 < alexnet().total_macs < 0.8e9

    def test_conv1_geometry(self):
        conv1 = alexnet().layer("conv1")
        assert conv1.out_h == 55  # (224 + 4 - 11)/4 + 1


class TestVGG16:
    def test_layer_count(self):
        spec = vgg16()
        assert len(spec.conv_layers) == 13

    def test_macs_match_published(self):
        # ~15.5 GMACs per image
        assert 15e9 < vgg16().total_macs < 16e9

    def test_parameter_count(self):
        # ~138M parameters
        assert 134e6 < vgg16().total_weight_elements < 142e6


class TestResNets:
    def test_resnet18_macs(self):
        # ~1.8 GMACs
        assert 1.7e9 < resnet18().total_macs < 1.9e9

    def test_resnet18_params(self):
        # ~11.7M parameters
        assert 11e6 < resnet18().total_weight_elements < 12.5e6

    def test_resnet50_macs(self):
        # ~3.8-4.1 GMACs
        assert 3.6e9 < resnet50().total_macs < 4.2e9

    def test_resnet50_params(self):
        # ~25.5M parameters
        assert 23e6 < resnet50().total_weight_elements < 27e6

    def test_downsample_layers_present(self):
        names = [layer.name for layer in resnet18().conv_layers]
        assert "layer2_0_down" in names
        assert "layer1_0_down" not in names  # stage 1 keeps 64 channels


class TestRnnModels:
    def test_lstm_weight_volume(self):
        """Each gate matrix of a 1024 cell is 1024x2048: 2M elements, i.e.
        the 2MB-per-gate (16-bit) figure of paper Section IV-B covers the
        hidden+input concatenation."""
        spec = lstm_lm(hidden=1024, layers=2)
        layer = spec.rnn_layers[0]
        per_gate = layer.weight_elements // layer.num_gates
        assert per_gate == 1024 * 2048

    def test_gru_smaller_than_lstm(self):
        assert gru_lm().total_weight_elements < lstm_lm().total_weight_elements

    def test_gnmt_structure(self):
        spec = gnmt()
        names = [layer.name for layer in spec.rnn_layers]
        assert names == [f"enc{i}" for i in range(1, 5)] + [
            f"dec{i}" for i in range(1, 5)
        ]

    def test_domains(self):
        assert lstm_lm().domain == "rnn"
        assert alexnet().domain == "cnn"


class TestRegistry:
    def test_all_models_buildable(self):
        for name in MODEL_REGISTRY:
            spec = get_model_spec(name)
            assert spec.total_macs > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            get_model_spec("bert")
