"""Tests for losses and quality metrics."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss, perplexity, topk_accuracy
from tests.conftest import numerical_gradient


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = CrossEntropyLoss()
        value = loss(np.zeros((4, 10)), np.arange(4))
        assert value == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = logits[1, 2] = 100.0
        assert CrossEntropyLoss()(logits, np.array([1, 2])) < 1e-6

    def test_three_dimensional_input(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(4, 2, 5))
        targets = rng.integers(0, 5, size=(4, 2))
        value = loss(logits, targets)
        flat = CrossEntropyLoss()(logits.reshape(8, 5), targets.reshape(8))
        assert value == pytest.approx(flat)

    def test_backward_matches_numeric(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 4))
        targets = np.array([0, 2, 3])
        loss(logits, targets)
        analytic = loss.backward()
        numeric = numerical_gradient(
            lambda z: CrossEntropyLoss()(z, targets), logits.copy()
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_backward_shape_follows_input(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(4, 2, 5))
        targets = rng.integers(0, 5, size=(4, 2))
        loss(logits, targets)
        assert loss.backward().shape == (4, 2, 5)

    def test_batch_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            CrossEntropyLoss()(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestMetrics:
    def test_perplexity_of_uniform(self):
        assert perplexity(np.log(50)) == pytest.approx(50.0)

    def test_top1_accuracy(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert topk_accuracy(logits, np.array([1, 0])) == 1.0
        assert topk_accuracy(logits, np.array([0, 0])) == 0.5

    def test_top5_contains_target(self, rng):
        logits = rng.normal(size=(20, 10))
        targets = logits.argsort(axis=1)[:, -3]  # third-best logit
        assert topk_accuracy(logits, targets, k=5) == 1.0
        assert topk_accuracy(logits, targets, k=1) == 0.0

    def test_topk_greater_equal_top1(self, rng):
        logits = rng.normal(size=(50, 10))
        targets = rng.integers(0, 10, size=50)
        assert topk_accuracy(logits, targets, k=5) >= topk_accuracy(
            logits, targets, k=1
        )
