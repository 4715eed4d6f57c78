"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.nn.data import (
    GaussianMixtureImages,
    SyntheticTranslationTask,
    ZipfTokenStream,
)


class TestGaussianMixtureImages:
    def test_sample_shapes(self, rng):
        ds = GaussianMixtureImages(num_classes=5, channels=3, height=16, width=16)
        images, labels = ds.sample(10, rng)
        assert images.shape == (10, 3, 16, 16)
        assert labels.shape == (10,)
        assert labels.min() >= 0 and labels.max() < 5

    def test_templates_deterministic_by_seed(self, rng):
        a = GaussianMixtureImages(seed=7)
        b = GaussianMixtureImages(seed=7)
        np.testing.assert_array_equal(a._templates, b._templates)

    def test_different_seeds_differ(self):
        a = GaussianMixtureImages(seed=1)
        b = GaussianMixtureImages(seed=2)
        assert not np.allclose(a._templates, b._templates)

    def test_classes_are_separable(self, rng):
        """Samples should be closer to their own template than to others."""
        ds = GaussianMixtureImages(num_classes=4, noise=0.2)
        images, labels = ds.sample(40, rng)
        correct = 0
        for img, label in zip(images, labels):
            dists = [np.sum((img - t) ** 2) for t in ds._templates]
            correct += int(np.argmin(dists) == label)
        assert correct >= 36  # noise=0.2 leaves classes well separated


class TestZipfTokenStream:
    def test_sequence_shapes(self, rng):
        stream = ZipfTokenStream(vocab_size=50)
        seqs = stream.sample(12, 4, rng)
        assert seqs.shape == (12, 4)
        assert seqs.min() >= 0 and seqs.max() < 50

    def test_lm_batch_alignment(self, rng):
        stream = ZipfTokenStream(vocab_size=30)
        inputs, targets = stream.lm_batch(10, 2, rng)
        assert inputs.shape == targets.shape == (10, 2)
        # targets are inputs shifted by one step

    def test_transitions_follow_chain(self, rng):
        stream = ZipfTokenStream(vocab_size=20, branching=4)
        seqs = stream.sample(50, 3, rng)
        for b in range(3):
            for t in range(49):
                token, nxt = seqs[t, b], seqs[t + 1, b]
                assert nxt in stream._successors[token]

    def test_markov_structure_is_learnable(self, rng):
        """Entropy of the chain is far below log(vocab): an LM can win."""
        stream = ZipfTokenStream(vocab_size=100, branching=4)
        # per-token transition entropy
        probs = stream._probs
        entropy = -np.sum(probs * np.log(probs), axis=1).mean()
        assert entropy < np.log(100) / 2


class TestSyntheticTranslation:
    def test_sample_shapes(self, rng):
        task = SyntheticTranslationTask(vocab_size=20, seq_len=6)
        src, tgt = task.sample(8, rng)
        assert src.shape == tgt.shape == (6, 8)

    def test_target_is_permuted_reversal(self, rng):
        task = SyntheticTranslationTask(vocab_size=20, seq_len=5)
        src, tgt = task.sample(3, rng)
        np.testing.assert_array_equal(tgt, task._perm[src[::-1]])

    def test_score_perfect_and_zero(self, rng):
        task = SyntheticTranslationTask(vocab_size=10, seq_len=4)
        _, tgt = task.sample(5, rng)
        assert task.score(tgt, tgt) == 1.0
        assert task.score((tgt + 1) % 10, tgt) == pytest.approx(0.0, abs=0.2)

    def test_score_shape_mismatch(self):
        task = SyntheticTranslationTask()
        with pytest.raises(ValueError, match="mismatch"):
            task.score(np.zeros((2, 3)), np.zeros((3, 2)))
