"""Loss functions and quality metrics (cross-entropy, perplexity, top-k)."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F

__all__ = ["CrossEntropyLoss", "perplexity", "topk_accuracy"]


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class targets.

    Accepts logits of shape ``(batch, classes)`` or ``(T, batch, classes)``
    (the latter is used for language-model training where the loss is the
    mean over all time steps).
    """

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets)
        flat_logits = logits.reshape(-1, logits.shape[-1])
        flat_targets = targets.reshape(-1)
        if flat_logits.shape[0] != flat_targets.shape[0]:
            raise ValueError(
                f"batch mismatch: {flat_logits.shape[0]} logits rows vs "
                f"{flat_targets.shape[0]} targets"
            )
        log_probs = F.log_softmax(flat_logits, axis=-1)
        picked = log_probs[np.arange(flat_targets.shape[0]), flat_targets]
        self._cache = (F.softmax(flat_logits, axis=-1), flat_targets, logits.shape)
        return float(-picked.mean())

    def backward(self) -> np.ndarray:
        """Gradient w.r.t. the logits, reshaped to the input shape."""
        probs, targets, shape = self._cache
        grad = probs.copy()
        grad[np.arange(targets.shape[0]), targets] -= 1.0
        grad /= targets.shape[0]
        return grad.reshape(shape)


def perplexity(mean_cross_entropy: float) -> float:
    """Language-model perplexity ``exp(mean NLL)`` (paper Fig. 10c metric)."""
    return float(np.exp(mean_cross_entropy))


def topk_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose target is among the top-k logits.

    Used for the paper's top-1/top-5 accuracy metrics (Fig. 10a/b).
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets).reshape(-1)
    flat = logits.reshape(-1, logits.shape[-1])
    if k == 1:
        return float(np.mean(flat.argmax(axis=-1) == targets))
    topk = np.argpartition(-flat, k - 1, axis=-1)[:, :k]
    return float(np.mean(np.any(topk == targets[:, None], axis=-1)))
