"""Trainable proxy models for the accuracy-vs-savings studies.

The paper's quality metrics (top-1/top-5 accuracy, perplexity, BLEU) need
real trained networks.  Full ImageNet-scale training is infeasible on CPU,
so these proxies keep the *architectural family* (conv stacks with ReLU,
stacked LSTM/GRU language models, an encoder-decoder seq2seq) at a scale
trainable in seconds on the synthetic datasets of :mod:`repro.nn.data`.
DESIGN.md's substitution table records the fidelity argument.

Each proxy pairs with a trainer returning the converged quality metric;
the dual-module conversion in :mod:`repro.models.dualize` then measures
quality degradation as thresholds grow -- the Fig. 10 trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.nn.data import GaussianMixtureImages, ZipfTokenStream, SyntheticTranslationTask
from repro.nn.layers import (
    Conv2d,
    Embedding,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.losses import CrossEntropyLoss, perplexity, topk_accuracy
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.recurrent import GRU, LSTM

__all__ = [
    "ProxyCNN",
    "proxy_alexnet",
    "proxy_resnet18",
    "ProxyLanguageModel",
    "ProxySeq2Seq",
    "train_classifier",
    "evaluate_classifier",
    "train_language_model",
    "evaluate_language_model",
    "train_seq2seq",
    "evaluate_seq2seq",
]


class ProxyCNN(Module):
    """A conv/ReLU/pool stack plus linear classifier head.

    Built as alternating ``Conv2d -> ReLU`` pairs (with optional pooling)
    so that every conv layer is followed by the ReLU whose insensitive
    region dual-module processing exploits.

    Attributes:
        features: the convolutional ``Sequential``.
        classifier: the ``Flatten -> Linear`` head.
        conv_layers: direct references to each ``Conv2d`` in order.
    """

    def __init__(self, features: Sequential, classifier: Sequential):
        super().__init__()
        self.features = features
        self.classifier = classifier
        self.conv_layers = [m for m in features if isinstance(m, Conv2d)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.features.backward(self.classifier.backward(grad_out))


def proxy_alexnet(
    num_classes: int = 10, rng: np.random.Generator | None = None
) -> ProxyCNN:
    """AlexNet-family proxy: 3 conv layers with growing channels, 32x32 in."""
    rng = rng if rng is not None else np.random.default_rng(0)
    features = Sequential(
        Conv2d(3, 16, 5, stride=1, padding=2, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(16, 32, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(32, 32, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
    )
    classifier = Sequential(Flatten(), Linear(32 * 4 * 4, num_classes, rng=rng))
    return ProxyCNN(features, classifier)


def proxy_resnet18(
    num_classes: int = 10, rng: np.random.Generator | None = None
) -> ProxyCNN:
    """ResNet-family proxy: deeper stack of 3x3 convs (plain, no skips).

    Skip connections don't change the dual-module algorithm (they operate
    on pre-activations of individual conv layers), so the proxy keeps
    depth and channel progression but stays sequential.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    features = Sequential(
        Conv2d(3, 16, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        Conv2d(16, 16, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(16, 32, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        Conv2d(32, 32, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(32, 64, 3, stride=1, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
    )
    classifier = Sequential(Flatten(), Linear(64 * 4 * 4, num_classes, rng=rng))
    return ProxyCNN(features, classifier)


def train_classifier(
    model: ProxyCNN,
    dataset: GaussianMixtureImages,
    steps: int = 120,
    batch_size: int = 32,
    lr: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> float:
    """Train a proxy classifier with Adam; returns final-step loss."""
    rng = rng if rng is not None else np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr)
    criterion = CrossEntropyLoss()
    loss = float("nan")
    for _ in range(steps):
        images, labels = dataset.sample(batch_size, rng)
        logits = model(images)
        loss = criterion(logits, labels)
        optimizer.zero_grad()
        model.backward(criterion.backward())
        optimizer.step()
    return loss


def evaluate_classifier(
    model: ProxyCNN,
    dataset: GaussianMixtureImages,
    samples: int = 512,
    rng: np.random.Generator | None = None,
    k: int = 1,
) -> float:
    """Top-k accuracy of a proxy classifier on fresh synthetic samples."""
    rng = rng if rng is not None else np.random.default_rng(1234)
    images, labels = dataset.sample(samples, rng)
    logits = model(images)
    return topk_accuracy(logits, labels, k=k)


class ProxyLanguageModel(Module):
    """Embedding -> stacked LSTM/GRU -> tied-size linear decoder.

    The PTB stand-in: trained on :class:`ZipfTokenStream`, scored in
    perplexity, exactly the metric of paper Fig. 10(c).
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 32,
        hidden_size: int = 64,
        num_layers: int = 1,
        cell: str = "lstm",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng)
        rnn_class = {"lstm": LSTM, "gru": GRU}.get(cell)
        if rnn_class is None:
            raise ValueError(f"cell must be 'lstm' or 'gru', got {cell!r}")
        self.rnn: Module = rnn_class(embed_dim, hidden_size, num_layers, rng=rng)
        self.decoder = Linear(hidden_size, vocab_size, rng=rng)
        self.cell_kind = cell
        self.hidden_size = hidden_size

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Map ``(T, B)`` token ids to ``(T, B, vocab)`` logits."""
        embedded = self.embedding(tokens)
        hidden, _ = self.rnn(embedded)
        seq_len, batch, _ = hidden.shape
        logits = self.decoder(hidden.reshape(seq_len * batch, -1))
        return logits.reshape(seq_len, batch, self.vocab_size)

    def backward(self, grad_logits: np.ndarray) -> None:
        seq_len, batch, _ = grad_logits.shape
        grad_hidden = self.decoder.backward(
            grad_logits.reshape(seq_len * batch, -1)
        ).reshape(seq_len, batch, self.hidden_size)
        grad_embedded = self.rnn.backward(grad_hidden)
        self.embedding.backward(grad_embedded)


def train_language_model(
    model: ProxyLanguageModel,
    stream: ZipfTokenStream,
    steps: int = 150,
    seq_len: int = 20,
    batch_size: int = 16,
    lr: float = 3e-3,
    rng: np.random.Generator | None = None,
) -> float:
    """Train an LM proxy with Adam; returns final-step loss (mean NLL)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr)
    criterion = CrossEntropyLoss()
    loss = float("nan")
    for _ in range(steps):
        inputs, targets = stream.lm_batch(seq_len, batch_size, rng)
        logits = model(inputs)
        loss = criterion(logits, targets)
        optimizer.zero_grad()
        model.backward(criterion.backward())
        optimizer.step()
    return loss


def evaluate_language_model(
    model: ProxyLanguageModel,
    stream: ZipfTokenStream,
    seq_len: int = 20,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> float:
    """Perplexity on fresh synthetic text (lower is better)."""
    rng = rng if rng is not None else np.random.default_rng(1234)
    inputs, targets = stream.lm_batch(seq_len, batch_size, rng)
    logits = model(inputs)
    return perplexity(CrossEntropyLoss()(logits, targets))


class ProxySeq2Seq(Module):
    """Encoder-decoder LSTM (the GNMT stand-in).

    The encoder consumes the source; its final state seeds the decoder,
    which is teacher-forced during training and greedy-decoded during
    evaluation.  Quality is the token-accuracy "BLEU analogue" defined by
    :class:`~repro.nn.data.SyntheticTranslationTask`.
    """

    #: token id prepended to the decoder input (reserved from the vocab).
    BOS = 0

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 24,
        hidden_size: int = 48,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.src_embedding = Embedding(vocab_size, embed_dim, rng=rng)
        self.tgt_embedding = Embedding(vocab_size, embed_dim, rng=rng)
        self.encoder = LSTM(embed_dim, hidden_size, rng=rng)
        self.decoder = LSTM(embed_dim, hidden_size, rng=rng)
        self.head = Linear(hidden_size, vocab_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """Teacher-forced logits of shape ``(T_tgt, B, vocab)``."""
        enc_out, enc_state = self.encoder(self.src_embedding(src))
        del enc_out
        dec_out, _ = self.decoder(self.tgt_embedding(tgt_in), state=enc_state)
        seq_len, batch, _ = dec_out.shape
        logits = self.head(dec_out.reshape(seq_len * batch, -1))
        return logits.reshape(seq_len, batch, self.vocab_size)

    def backward(self, grad_logits: np.ndarray) -> None:
        seq_len, batch, _ = grad_logits.shape
        grad_dec = self.head.backward(
            grad_logits.reshape(seq_len * batch, -1)
        ).reshape(seq_len, batch, self.hidden_size)
        grad_tgt_emb = self.decoder.backward(grad_dec)
        self.tgt_embedding.backward(grad_tgt_emb)
        # Gradient into the encoder final state is dropped: with explicit
        # backward passes, threading state gradients across the
        # encoder/decoder boundary is a second-order effect for this proxy
        # task, which trains to high quality without it.

    def greedy_decode(self, src: np.ndarray, max_len: int) -> np.ndarray:
        """Greedy autoregressive decoding; returns ``(max_len, B)`` tokens."""
        _, enc_state = self.encoder(self.src_embedding(src))
        batch = src.shape[1]
        tokens = np.full((1, batch), self.BOS, dtype=np.int64)
        outputs = np.empty((max_len, batch), dtype=np.int64)
        state = enc_state
        current = tokens[0]
        for t in range(max_len):
            emb = self.tgt_embedding(current[None, :])
            dec_out, state = self.decoder(emb, state=state)
            logits = self.head(dec_out[0])
            current = logits.argmax(axis=-1)
            outputs[t] = current
        return outputs


def train_seq2seq(
    model: ProxySeq2Seq,
    task: SyntheticTranslationTask,
    steps: int = 200,
    batch_size: int = 32,
    lr: float = 5e-3,
    rng: np.random.Generator | None = None,
) -> float:
    """Teacher-forced training with Adam; returns final-step loss."""
    rng = rng if rng is not None else np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr)
    criterion = CrossEntropyLoss()
    loss = float("nan")
    for _ in range(steps):
        src, tgt = task.sample(batch_size, rng)
        bos = np.full((1, batch_size), ProxySeq2Seq.BOS, dtype=np.int64)
        tgt_in = np.concatenate([bos, tgt[:-1]], axis=0)
        logits = model(src, tgt_in)
        loss = criterion(logits, tgt)
        optimizer.zero_grad()
        model.backward(criterion.backward())
        optimizer.step()
    return loss


def evaluate_seq2seq(
    model: ProxySeq2Seq,
    task: SyntheticTranslationTask,
    samples: int = 128,
    rng: np.random.Generator | None = None,
) -> float:
    """Greedy-decode fresh pairs and return the token-accuracy score."""
    rng = rng if rng is not None else np.random.default_rng(1234)
    src, tgt = task.sample(samples, rng)
    pred = model.greedy_decode(src, max_len=tgt.shape[0])
    return task.score(pred, tgt)
