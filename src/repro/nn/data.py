"""Synthetic datasets standing in for ImageNet, PTB, and WMT16.

The paper evaluates accuracy-vs-savings trade-offs on ImageNet image
classification, PTB language modelling, and WMT16 en-de translation.  Those
corpora are unavailable offline, so this module provides synthetic
generators that preserve what the trade-off study actually depends on:

- class-conditional image structure (so classifiers are trainable and their
  activation distributions show realistic insensitive-region mass),
- Zipfian token statistics with Markov structure (so LSTM/GRU language
  models learn non-trivial predictive state and gate pre-activations
  saturate the way they do on natural text),
- a deterministic sequence-to-sequence mapping (so translation quality can
  be scored and degraded gracefully under approximation).

See DESIGN.md's substitution table for the fidelity argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianMixtureImages",
    "ZipfTokenStream",
    "SyntheticTranslationTask",
]


@dataclass
class GaussianMixtureImages:
    """Class-conditional synthetic images (the ImageNet stand-in).

    Each class is defined by a smooth random spatial template plus a few
    localised blobs; samples are the template corrupted with pixel noise.
    Templates are low-frequency so convolutional features are genuinely
    useful, which makes post-ReLU activation sparsity behave like real CNN
    feature maps (large near-zero mass -- paper Fig. 2).

    Attributes:
        num_classes: number of classes.
        channels/height/width: image dimensions.
        noise: per-pixel Gaussian noise sigma.
        seed: RNG seed controlling the class templates.
    """

    num_classes: int = 10
    channels: int = 3
    height: int = 32
    width: int = 32
    noise: float = 0.35
    seed: int = 0
    _templates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        shape = (self.num_classes, self.channels, self.height, self.width)
        coarse_h = max(2, self.height // 4)
        coarse_w = max(2, self.width // 4)
        coarse = rng.normal(
            0.0, 1.0, size=(self.num_classes, self.channels, coarse_h, coarse_w)
        )
        # bilinear-ish upsample by repetition then box blur for smoothness
        up = coarse.repeat(self.height // coarse_h + 1, axis=2)[
            :, :, : self.height, :
        ].repeat(self.width // coarse_w + 1, axis=3)[:, :, :, : self.width]
        kernel = np.ones(3) / 3.0
        for axis in (2, 3):
            up = np.apply_along_axis(
                lambda v: np.convolve(v, kernel, mode="same"), axis, up
            )
        self._templates = up.reshape(shape)

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled images.

        Returns:
            ``(images, labels)`` with shapes ``(n, C, H, W)`` and ``(n,)``.
        """
        labels = rng.integers(0, self.num_classes, size=n)
        images = self._templates[labels] + rng.normal(
            0.0, self.noise, size=(n, self.channels, self.height, self.width)
        )
        return images, labels


@dataclass
class ZipfTokenStream:
    """Markov token stream with Zipfian unigram statistics (PTB stand-in).

    A random sparse first-order Markov chain whose stationary distribution
    is approximately Zipfian.  An LSTM/GRU language model trained on it
    must learn the transition structure, so its perplexity responds to
    approximation error the way a PTB model's does.

    Attributes:
        vocab_size: number of token types.
        branching: successors per token in the Markov chain.
        zipf_a: Zipf exponent of the unigram skew.
        seed: RNG seed controlling the chain.
    """

    vocab_size: int = 200
    branching: int = 8
    zipf_a: float = 1.2
    seed: int = 0
    _successors: np.ndarray = field(init=False, repr=False)
    _probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        ranks = np.arange(1, self.vocab_size + 1, dtype=np.float64)
        zipf = ranks**-self.zipf_a
        zipf /= zipf.sum()
        self._successors = np.empty((self.vocab_size, self.branching), dtype=np.int64)
        self._probs = np.empty((self.vocab_size, self.branching))
        for token in range(self.vocab_size):
            succ = rng.choice(self.vocab_size, size=self.branching, replace=False, p=zipf)
            weight = rng.dirichlet(np.ones(self.branching) * 0.5)
            self._successors[token] = succ
            self._probs[token] = weight

    def sample(
        self, length: int, batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw token sequences of shape ``(length, batch)``."""
        seqs = np.empty((length, batch), dtype=np.int64)
        current = rng.integers(0, self.vocab_size, size=batch)
        seqs[0] = current
        for t in range(1, length):
            nxt = np.empty(batch, dtype=np.int64)
            for b in range(batch):
                token = current[b]
                choice = rng.choice(self.branching, p=self._probs[token])
                nxt[b] = self._successors[token, choice]
            current = nxt
            seqs[t] = current
        return seqs

    def lm_batch(
        self, length: int, batch: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw an ``(inputs, next-token targets)`` LM training pair."""
        seqs = self.sample(length + 1, batch, rng)
        return seqs[:-1], seqs[1:]


@dataclass
class SyntheticTranslationTask:
    """Deterministic sequence transduction (the WMT16 en-de stand-in).

    The "translation" of a source sequence is its reversal through a fixed
    random token permutation.  A seq2seq model must carry the whole source
    through its hidden state, which exercises the same encoder-decoder
    LSTM structure as GNMT; quality is scored as exact-token match (a
    BLEU-1 analogue, reported as ``quality`` in the benchmarks).

    Attributes:
        vocab_size: token vocabulary (shared source/target).
        seq_len: source length (target has equal length).
        seed: RNG seed controlling the permutation.
    """

    vocab_size: int = 40
    seq_len: int = 8
    seed: int = 0
    _perm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self._perm = rng.permutation(self.vocab_size)

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` pairs; shapes ``(seq_len, n)`` source and target."""
        src = rng.integers(0, self.vocab_size, size=(self.seq_len, n))
        tgt = self._perm[src[::-1]]
        return src, tgt

    def score(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Token-level accuracy in [0, 1] (the BLEU analogue)."""
        predictions = np.asarray(predictions)
        targets = np.asarray(targets)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: {predictions.shape} vs {targets.shape}"
            )
        return float(np.mean(predictions == targets))
