"""Early-exit model structure: registry, truncation, reduced width."""

import pytest

from repro.dynamic import early_exit_variants
from repro.dynamic.exits import (
    EXIT_REGISTRY,
    FINAL_EXIT,
    EarlyExitModel,
    ExitPoint,
    early_exit_model,
    reduced_width_spec,
    truncated_spec,
)
from repro.models import get_model_spec


class TestExitPoint:
    def test_reserved_final_name_rejected(self):
        with pytest.raises(ValueError):
            ExitPoint(FINAL_EXIT, after_layer="conv1")

    @pytest.mark.parametrize("name, layer", [("", "conv1"), ("ee1", "")])
    def test_empty_fields_rejected(self, name, layer):
        with pytest.raises(ValueError):
            ExitPoint(name, after_layer=layer)


class TestEarlyExitModel:
    def test_registry_models_resolve(self):
        for name in early_exit_variants():
            variant = early_exit_model(name)
            assert variant.name == name
            assert variant.exit_names[-1] == FINAL_EXIT
            assert len(variant.exit_names) == len(EXIT_REGISTRY[name]) + 1

    def test_unregistered_model_raises(self):
        with pytest.raises(KeyError):
            early_exit_model("lstm")

    def test_depth_fractions_increase_and_cap_at_one(self):
        variant = early_exit_model("resnet18")
        fractions = [variant.depth_fraction(e) for e in variant.exit_names]
        assert all(0.0 < f for f in fractions)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert all(f < 1.0 for f in fractions[:-1])

    def test_needs_at_least_one_exit(self):
        spec = get_model_spec("alexnet")
        with pytest.raises(ValueError):
            EarlyExitModel(spec=spec, exits=())

    def test_duplicate_exit_names_rejected(self):
        spec = get_model_spec("alexnet")
        with pytest.raises(ValueError):
            EarlyExitModel(
                spec=spec,
                exits=(
                    ExitPoint("ee1", after_layer="conv1"),
                    ExitPoint("ee1", after_layer="conv3"),
                ),
            )

    def test_out_of_order_exits_rejected(self):
        spec = get_model_spec("alexnet")
        with pytest.raises(ValueError):
            EarlyExitModel(
                spec=spec,
                exits=(
                    ExitPoint("ee1", after_layer="conv3"),
                    ExitPoint("ee2", after_layer="conv1"),
                ),
            )

    def test_exit_on_the_last_layer_rejected(self):
        spec = get_model_spec("alexnet")
        with pytest.raises(ValueError):
            EarlyExitModel(
                spec=spec,
                exits=(ExitPoint("ee1", after_layer=spec.layers[-1].name),),
            )

    def test_unknown_layer_and_exit_raise_key_error(self):
        variant = early_exit_model("alexnet")
        with pytest.raises(KeyError):
            variant.layer_index("definitely_not_a_layer")
        with pytest.raises(KeyError):
            variant.exit_point("ee99")


class TestTruncatedSpec:
    def test_side_exit_is_prefix_plus_head(self):
        variant = early_exit_model("alexnet")
        point = variant.exits[0]
        spec = truncated_spec(variant, point.name)
        attach_index = variant.layer_index(point.after_layer)
        assert spec.name == f"alexnet@{point.name}"
        assert len(spec.layers) == attach_index + 2
        assert spec.layers[attach_index].name == point.after_layer
        assert spec.layers[-1].name == f"{point.name}_head"
        assert spec.total_macs < variant.spec.total_macs

    def test_heads_project_to_the_classifier_width(self):
        for name in early_exit_variants():
            variant = early_exit_model(name)
            for point in variant.exits:
                head = truncated_spec(variant, point.name).layers[-1]
                assert head.out_features == 1000


class TestReducedWidth:
    def test_full_width_returns_the_same_object(self):
        spec = get_model_spec("alexnet")
        assert reduced_width_spec(spec, 1.0) is spec

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_out_of_range_width_rejected(self, bad):
        with pytest.raises(ValueError):
            reduced_width_spec(get_model_spec("alexnet"), bad)

    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_interface_preserved_and_capacity_shed(self, model):
        spec = get_model_spec(model)
        narrow = reduced_width_spec(spec, 0.5)
        assert narrow.name == f"{model}~w0.5"
        assert len(narrow.layers) == len(spec.layers)
        assert narrow.layers[0].in_channels == spec.layers[0].in_channels
        assert narrow.layers[-1].out_features == spec.layers[-1].out_features
        assert narrow.total_macs < spec.total_macs

    def test_rnn_width_sheds_capacity(self):
        spec = get_model_spec("lstm")
        narrow = reduced_width_spec(spec, 0.5)
        assert narrow.total_macs < spec.total_macs
