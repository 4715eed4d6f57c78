"""Threshold tuning for dynamic switching.

The switching thresholds ``theta`` are "obtained by tuning with the
fine-tuning phase" (paper Section II-A): after distillation, a calibration
pass sweeps candidate thresholds and picks, per layer, the most aggressive
threshold whose quality degradation stays within a budget.  Two utilities
are provided:

- :func:`tune_threshold_for_fraction` -- pick the threshold that marks a
  target fraction of activations insensitive (a direct quantile; useful
  for controlled sweeps and for the Fig. 2/Fig. 13 studies).
- :class:`ThresholdTuner` -- budgeted tuning: sweep thresholds, evaluate a
  caller-supplied quality function, and keep the cheapest configuration
  within ``max_quality_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "tune_threshold_for_fraction",
    "ThresholdTuner",
    "TuningResult",
    "tune_dualized_classifier",
    "allocate_layer_fractions",
]


def tune_threshold_for_fraction(
    approx_pre_activations: np.ndarray,
    activation: str,
    target_insensitive_fraction: float,
) -> float:
    """Threshold marking ``target_insensitive_fraction`` of outputs insensitive.

    For ReLU the insensitive set is ``{y' < theta}``, so the threshold is
    the corresponding lower quantile of the approximate pre-activations.
    For sigmoid/tanh the insensitive set is ``{|y'| > theta}``, so the
    threshold is the matching upper quantile of ``|y'|``.

    Args:
        approx_pre_activations: calibration outputs of the approximate
            module (any shape).
        activation: ``relu``, ``sigmoid`` or ``tanh``.
        target_insensitive_fraction: desired fraction in ``[0, 1]``.

    Returns:
        The threshold ``theta``.
    """
    if not 0.0 <= target_insensitive_fraction <= 1.0:
        raise ValueError(
            f"fraction must be in [0, 1], got {target_insensitive_fraction}"
        )
    y = np.asarray(approx_pre_activations, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ValueError("empty calibration tensor")
    if activation == "relu":
        return float(np.quantile(y, target_insensitive_fraction))
    if activation in ("sigmoid", "tanh"):
        return float(np.quantile(np.abs(y), 1.0 - target_insensitive_fraction))
    raise ValueError(f"no threshold rule for activation {activation!r}")


@dataclass
class TuningResult:
    """Outcome of a budgeted threshold sweep.

    Attributes:
        threshold: the selected threshold.
        quality: quality metric at the selected threshold.
        quality_loss: degradation versus the dense reference.
        insensitive_fraction: fraction of outputs switched to approximate.
        swept: list of ``(threshold, quality, insensitive_fraction)`` for
            every candidate evaluated, in sweep order.
    """

    threshold: float
    quality: float
    quality_loss: float
    insensitive_fraction: float
    swept: list[tuple[float, float, float]]


class ThresholdTuner:
    """Budgeted threshold search over a caller-supplied quality function.

    Args:
        quality_fn: maps a threshold to ``(quality, insensitive_fraction)``.
            Quality must be "higher is better" (accuracy, negative
            perplexity, BLEU-analogue score, ...).
        reference_quality: quality of dense (accurate-only) execution.
        max_quality_loss: tolerated degradation, e.g. 0.01 for the paper's
            MLPerf-style 1% budget.
    """

    def __init__(
        self,
        quality_fn: Callable[[float], tuple[float, float]],
        reference_quality: float,
        max_quality_loss: float,
    ):
        if max_quality_loss < 0:
            raise ValueError(f"budget must be non-negative, got {max_quality_loss}")
        self.quality_fn = quality_fn
        self.reference_quality = reference_quality
        self.max_quality_loss = max_quality_loss

    def sweep(self, candidates: Sequence[float]) -> TuningResult:
        """Evaluate candidates and keep the most aggressive one in budget.

        "Most aggressive" means the largest insensitive fraction; ties are
        broken toward the earlier candidate.  If no candidate satisfies the
        budget the least-degrading candidate is returned (its
        ``quality_loss`` will exceed the budget -- callers should check).

        Args:
            candidates: thresholds to try, any order.

        Returns:
            A :class:`TuningResult`.
        """
        if not candidates:
            raise ValueError("no candidate thresholds supplied")
        swept: list[tuple[float, float, float]] = []
        best: tuple[float, float, float] | None = None
        fallback: tuple[float, float, float] | None = None
        for theta in candidates:
            quality, frac = self.quality_fn(theta)
            swept.append((float(theta), float(quality), float(frac)))
            loss = self.reference_quality - quality
            if fallback is None or quality > fallback[1]:
                fallback = (float(theta), float(quality), float(frac))
            if loss <= self.max_quality_loss:
                if best is None or frac > best[2]:
                    best = (float(theta), float(quality), float(frac))
        chosen = best if best is not None else fallback
        assert chosen is not None
        theta, quality, frac = chosen
        return TuningResult(
            threshold=theta,
            quality=quality,
            quality_loss=self.reference_quality - quality,
            insensitive_fraction=frac,
            swept=swept,
        )


def tune_dualized_classifier(
    dual,
    calibration_images: np.ndarray,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    max_accuracy_loss: float = 0.01,
    fractions: Sequence[float] = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
) -> TuningResult:
    """End-to-end budgeted tuning of a dualized CNN (the MLPerf-style flow).

    Sweeps target insensitive fractions, sets per-layer thresholds via the
    calibration quantiles, evaluates top-1 accuracy, and keeps the most
    aggressive setting whose loss stays within ``max_accuracy_loss`` --
    the paper's "1% top-1 accuracy loss according to MLPerf" operating
    point (Section V-A).  The dual network is left configured at the
    selected fractions.

    Args:
        dual: a built :class:`repro.models.dualize.DualizedCNN`.
        calibration_images: images for threshold-quantile calibration.
        eval_images / eval_labels: held-out evaluation batch.
        max_accuracy_loss: tolerated top-1 degradation (default 1%).
        fractions: candidate insensitive fractions, swept in order.

    Returns:
        A :class:`TuningResult`; ``threshold`` holds the chosen *fraction*.
    """
    from repro.nn.losses import topk_accuracy

    # reference = accurate-only execution: fraction 0 keeps everything
    dual.set_thresholds_by_fraction(0.0, calibration_images)
    ref_logits, _ = dual.forward(eval_images)
    reference = topk_accuracy(ref_logits, eval_labels, k=1)

    def quality_fn(fraction: float) -> tuple[float, float]:
        dual.set_thresholds_by_fraction(fraction, calibration_images)
        logits, savings = dual.forward(eval_images)
        accuracy = topk_accuracy(logits, eval_labels, k=1)
        return accuracy, 1.0 - savings.sensitive_fraction

    tuner = ThresholdTuner(quality_fn, reference, max_accuracy_loss)
    result = tuner.sweep(list(fractions))
    # leave the dual network at the selected operating point
    dual.set_thresholds_by_fraction(result.threshold, calibration_images)
    return result


def allocate_layer_fractions(
    dual,
    calibration_images: np.ndarray,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    max_accuracy_loss: float = 0.01,
    levels: Sequence[float] = (0.3, 0.5, 0.7, 0.85, 0.95),
) -> list[float]:
    """Greedy per-layer aggressiveness allocation under a quality budget.

    The paper tunes switching thresholds per layer: layers differ in how
    much approximation they tolerate.  Starting with every layer at the
    mildest level, this greedily promotes one layer at a time -- always
    the promotion that stays within the accuracy budget and removes the
    most executed MACs -- until no promotion fits.  Upstream thresholds
    are recalibrated after every change (switching sparsifies the inputs
    downstream layers see).

    Args:
        dual: a built :class:`repro.models.dualize.DualizedCNN`.
        calibration_images: images for threshold-quantile calibration.
        eval_images / eval_labels: held-out evaluation batch.
        max_accuracy_loss: tolerated top-1 degradation vs level-0.
        levels: increasing insensitive-fraction levels.

    Returns:
        The selected per-layer fractions (the dual network is left
        configured at them).
    """
    from repro.nn.losses import topk_accuracy

    num_layers = len(dual.slots)
    assignment = [0] * num_layers  # index into levels, per layer

    def configure_and_eval(assign):
        dual.set_thresholds_by_fraction(
            [levels[a] for a in assign], calibration_images
        )
        logits, savings = dual.forward(eval_images)
        return topk_accuracy(logits, eval_labels, k=1), savings.executed_macs

    reference, _ = configure_and_eval(assignment)
    improved = True
    while improved:
        improved = False
        best = None  # (macs, layer, accuracy)
        for layer in range(num_layers):
            if assignment[layer] + 1 >= len(levels):
                continue
            trial = list(assignment)
            trial[layer] += 1
            accuracy, macs = configure_and_eval(trial)
            if reference - accuracy <= max_accuracy_loss:
                if best is None or macs < best[0]:
                    best = (macs, layer, accuracy)
        if best is not None:
            assignment[best[1]] += 1
            improved = True
    fractions = [levels[a] for a in assignment]
    dual.set_thresholds_by_fraction(fractions, calibration_images)
    return fractions
