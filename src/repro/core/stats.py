"""Activation-sensitivity statistics and savings accounting.

Provides the quantities behind the paper's motivation and algorithm-level
evaluation:

- Fig. 2: the fraction of activations living in the insensitive regions of
  ReLU (below threshold) and sigmoid/tanh (saturation).
- Fig. 10: FLOPs reduction and data-access reduction of dual-module
  processing relative to running the accurate module densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "relu_insensitive_fraction",
    "saturation_insensitive_fraction",
    "LayerSavings",
]


def relu_insensitive_fraction(pre_activations: np.ndarray, threshold: float = 0.0) -> float:
    """Fraction of pre-activations in ReLU's insensitive region (``y < theta``)."""
    y = np.asarray(pre_activations)
    if y.size == 0:
        raise ValueError("empty activation tensor")
    return float(np.mean(y < threshold))


def saturation_insensitive_fraction(
    pre_activations: np.ndarray, threshold: float
) -> float:
    """Fraction of pre-activations in sigmoid/tanh saturation (``|y| > theta``)."""
    if threshold < 0:
        raise ValueError(f"saturation threshold must be non-negative, got {threshold}")
    y = np.asarray(pre_activations)
    if y.size == 0:
        raise ValueError("empty activation tensor")
    return float(np.mean(np.abs(y) > threshold))


@dataclass
class LayerSavings:
    """Operation and data-access accounting for one dual-module layer run.

    All counts are totals over the processed batch.  ``*_dense`` fields are
    what single-module (accurate-only) execution would have cost; the
    ``speculation_*`` fields are the overhead the approximate module adds.

    Attributes:
        dense_macs: accurate-module MACs without any skipping.
        executed_macs: accurate-module MACs actually executed (sensitive
            outputs only, input sparsity applied when enabled).
        speculation_macs: low-precision MACs in the approximate module.
        speculation_additions: projection adder-tree additions.
        dense_weight_reads: accurate weight elements read without skipping.
        weight_reads: accurate weight elements actually read.
        speculation_weight_reads: QDR weight elements read.
        outputs_total: number of output activations produced.
        outputs_sensitive: outputs computed by the accurate module (m == 1).
    """

    dense_macs: int = 0
    executed_macs: int = 0
    speculation_macs: int = 0
    speculation_additions: int = 0
    dense_weight_reads: int = 0
    weight_reads: int = 0
    speculation_weight_reads: int = 0
    outputs_total: int = 0
    outputs_sensitive: int = 0

    @property
    def sensitive_fraction(self) -> float:
        """Fraction of outputs the Executor had to compute."""
        if self.outputs_total == 0:
            return 0.0
        return self.outputs_sensitive / self.outputs_total

    @property
    def flops_reduction(self) -> float:
        """Paper Fig. 10 metric: dense ops over total dual-module ops.

        Speculation additions are charged at half the cost of a MAC (a MAC
        is one multiply plus one add).
        """
        total = (
            self.executed_macs
            + self.speculation_macs
            + 0.5 * self.speculation_additions
        )
        if total == 0:
            return float("inf")
        return self.dense_macs / total

    @property
    def weight_access_reduction(self) -> float:
        """Paper Fig. 10c/d metric: dense weight reads over actual reads."""
        total = self.weight_reads + self.speculation_weight_reads
        if total == 0:
            return float("inf")
        return self.dense_weight_reads / total

    def merge(self, other: "LayerSavings") -> "LayerSavings":
        """Return the element-wise sum of two accounts (layer/network roll-up)."""
        return LayerSavings(
            dense_macs=self.dense_macs + other.dense_macs,
            executed_macs=self.executed_macs + other.executed_macs,
            speculation_macs=self.speculation_macs + other.speculation_macs,
            speculation_additions=(
                self.speculation_additions + other.speculation_additions
            ),
            dense_weight_reads=self.dense_weight_reads + other.dense_weight_reads,
            weight_reads=self.weight_reads + other.weight_reads,
            speculation_weight_reads=(
                self.speculation_weight_reads + other.speculation_weight_reads
            ),
            outputs_total=self.outputs_total + other.outputs_total,
            outputs_sensitive=self.outputs_sensitive + other.outputs_sensitive,
        )
