"""Tests for threshold tuning."""

import numpy as np
import pytest

from repro.core.thresholds import ThresholdTuner, tune_threshold_for_fraction


class TestQuantileTuning:
    def test_relu_fraction_achieved(self, rng):
        y = rng.normal(size=10_000)
        theta = tune_threshold_for_fraction(y, "relu", 0.7)
        assert abs(np.mean(y < theta) - 0.7) < 0.02

    def test_saturation_fraction_achieved(self, rng):
        y = rng.normal(size=10_000)
        theta = tune_threshold_for_fraction(y, "tanh", 0.4)
        assert abs(np.mean(np.abs(y) > theta) - 0.4) < 0.02

    def test_zero_fraction_relu(self, rng):
        y = rng.normal(size=100)
        theta = tune_threshold_for_fraction(y, "relu", 0.0)
        assert np.mean(y < theta) <= 0.02

    def test_full_fraction_saturation(self, rng):
        y = rng.normal(size=100)
        theta = tune_threshold_for_fraction(y, "sigmoid", 1.0)
        assert np.mean(np.abs(y) > theta) >= 0.98

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError, match="fraction"):
            tune_threshold_for_fraction(rng.normal(size=10), "relu", 1.5)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            tune_threshold_for_fraction(np.array([]), "relu", 0.5)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError, match="no threshold rule"):
            tune_threshold_for_fraction(rng.normal(size=10), "softmax", 0.5)


class TestThresholdTuner:
    @staticmethod
    def _quality_fn(theta):
        """Toy model: bigger theta = more savings but lower quality."""
        quality = 1.0 - 0.05 * theta**2
        fraction = min(1.0, theta / 4.0)
        return quality, fraction

    def test_picks_most_aggressive_within_budget(self):
        tuner = ThresholdTuner(self._quality_fn, reference_quality=1.0,
                               max_quality_loss=0.0501)
        result = tuner.sweep([0.0, 0.5, 1.0, 2.0, 3.0])
        # theta=1.0 loses exactly 0.05; theta=2.0 loses 0.2 (over budget)
        assert result.threshold == 1.0
        assert result.quality_loss <= 0.05 + 1e-12

    def test_fallback_when_nothing_in_budget(self):
        tuner = ThresholdTuner(self._quality_fn, reference_quality=1.0,
                               max_quality_loss=0.001)
        result = tuner.sweep([2.0, 3.0])
        # both over budget: the least-degrading one (theta=2) is returned
        assert result.threshold == 2.0
        assert result.quality_loss > 0.001

    def test_sweep_records_all_candidates(self):
        tuner = ThresholdTuner(self._quality_fn, 1.0, 0.5)
        result = tuner.sweep([0.0, 1.0, 2.0])
        assert len(result.swept) == 3

    def test_empty_candidates(self):
        tuner = ThresholdTuner(self._quality_fn, 1.0, 0.1)
        with pytest.raises(ValueError, match="no candidate"):
            tuner.sweep([])

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            ThresholdTuner(self._quality_fn, 1.0, -0.1)


class TestStats:
    def test_layer_savings_merge(self):
        from repro.core.stats import LayerSavings

        a = LayerSavings(dense_macs=100, executed_macs=40, outputs_total=10,
                         outputs_sensitive=4)
        b = LayerSavings(dense_macs=200, executed_macs=60, outputs_total=20,
                         outputs_sensitive=6)
        merged = a.merge(b)
        assert merged.dense_macs == 300
        assert merged.executed_macs == 100
        assert merged.sensitive_fraction == pytest.approx(10 / 30)

    def test_flops_reduction_counts_speculation(self):
        from repro.core.stats import LayerSavings

        s = LayerSavings(dense_macs=1000, executed_macs=250,
                         speculation_macs=100, speculation_additions=100)
        # 1000 / (250 + 100 + 50) = 2.5
        assert s.flops_reduction == pytest.approx(2.5)

    def test_weight_access_reduction(self):
        from repro.core.stats import LayerSavings

        s = LayerSavings(dense_weight_reads=1000, weight_reads=400,
                         speculation_weight_reads=100)
        assert s.weight_access_reduction == pytest.approx(2.0)

    def test_insensitive_fractions(self, rng):
        from repro.core.stats import (
            relu_insensitive_fraction,
            saturation_insensitive_fraction,
        )

        y = np.array([-1.0, -0.5, 0.5, 1.0])
        assert relu_insensitive_fraction(y, 0.0) == 0.5
        assert saturation_insensitive_fraction(y, 0.75) == 0.5


@pytest.fixture(scope="module")
def trained_dual():
    """One seed-3 dualized ``proxy_alexnet`` shared by the module, with the
    per-layer thresholds it was built with."""
    from repro.models.dualize import DualizedCNN
    from repro.models.proxies import proxy_alexnet, train_classifier
    from repro.nn.data import GaussianMixtureImages

    rng = np.random.default_rng(3)
    ds = GaussianMixtureImages(num_classes=6, noise=0.6)
    model = proxy_alexnet(num_classes=6, rng=rng)
    train_classifier(model, ds, steps=50, rng=rng)
    cal, _ = ds.sample(16, rng)
    dual = DualizedCNN.build(model, cal, reduction=0.12, rng=rng)
    images, labels = ds.sample(96, rng)
    built_thresholds = [slot.dual.threshold for slot in dual.slots]
    return (dual, cal, images, labels), built_thresholds


@pytest.fixture
def dualized(trained_dual):
    """The shared dual, its thresholds reset to their build-time values
    (the tests tune them in place)."""
    data, built_thresholds = trained_dual
    for slot, threshold in zip(data[0].slots, built_thresholds):
        slot.dual.threshold = threshold
    return data


class TestBudgetedClassifierTuning:
    def test_stays_within_budget(self, dualized):
        from repro.core.thresholds import tune_dualized_classifier

        dual, cal, images, labels = dualized
        result = tune_dualized_classifier(
            dual, cal, images, labels, max_accuracy_loss=0.02,
            fractions=(0.3, 0.6, 0.85),
        )
        assert result.quality_loss <= 0.02 + 1e-9
        assert result.insensitive_fraction > 0.2

    def test_looser_budget_more_aggressive(self, dualized):
        from repro.core.thresholds import tune_dualized_classifier

        dual, cal, images, labels = dualized
        tight = tune_dualized_classifier(
            dual, cal, images, labels, max_accuracy_loss=0.0,
            fractions=(0.3, 0.6, 0.85, 0.95),
        )
        loose = tune_dualized_classifier(
            dual, cal, images, labels, max_accuracy_loss=0.3,
            fractions=(0.3, 0.6, 0.85, 0.95),
        )
        assert loose.insensitive_fraction >= tight.insensitive_fraction

    def test_leaves_dual_at_selected_point(self, dualized):
        from repro.core.thresholds import tune_dualized_classifier
        from repro.nn.losses import topk_accuracy

        dual, cal, images, labels = dualized
        result = tune_dualized_classifier(
            dual, cal, images, labels, max_accuracy_loss=0.05,
            fractions=(0.3, 0.7),
        )
        logits, savings = dual.forward(images)
        assert topk_accuracy(logits, labels) == pytest.approx(result.quality)


class TestPerLayerAllocation:
    def test_budget_respected(self, dualized):
        from repro.core.thresholds import allocate_layer_fractions
        from repro.nn.losses import topk_accuracy

        dual, cal, images, labels = dualized
        dual.set_thresholds_by_fraction(0.3, cal)
        ref_logits, _ = dual.forward(images)
        reference = topk_accuracy(ref_logits, labels)
        allocate_layer_fractions(
            dual, cal, images, labels, max_accuracy_loss=0.02,
            levels=(0.3, 0.6, 0.9),
        )
        logits, _ = dual.forward(images)
        assert topk_accuracy(logits, labels) >= reference - 0.02 - 1e-9

    def test_per_layer_fractions_returned(self, dualized):
        from repro.core.thresholds import allocate_layer_fractions

        dual, cal, images, labels = dualized
        fractions = allocate_layer_fractions(
            dual, cal, images, labels, max_accuracy_loss=0.05,
            levels=(0.3, 0.6, 0.9),
        )
        assert len(fractions) == len(dual.slots)
        assert all(f in (0.3, 0.6, 0.9) for f in fractions)

    def test_loose_budget_promotes_layers(self, dualized):
        from repro.core.thresholds import allocate_layer_fractions

        dual, cal, images, labels = dualized
        fractions = allocate_layer_fractions(
            dual, cal, images, labels, max_accuracy_loss=0.5,
            levels=(0.3, 0.6, 0.9),
        )
        # a huge budget should promote every layer to the top level
        assert all(f == 0.9 for f in fractions)

    def test_fraction_list_validation(self, dualized):
        dual, cal, _, _ = dualized
        with pytest.raises(ValueError, match="fractions for"):
            dual.set_thresholds_by_fraction([0.5], cal)
