"""Dynamic switching: deciding which activations need accurate results.

Implements the paper's Eq. (2) and Eq. (3):

- For saturating nonlinearities (sigmoid, tanh) an approximate
  pre-activation deep in a saturation region (``|y'| > theta``) is
  insensitive: the switching index is 0 and the approximate result is kept.
- For ReLU, an approximate pre-activation comfortably below threshold
  (``y' < theta``) will be (near) zero after activation: switching index 0.
- All other activations are sensitive (switching index 1) and must be
  recomputed by the accurate module.

The final pre-activation is the mixture ``y = y_acc * m + y_approx * (1-m)``.

Also implements the CNN-specific map plumbing from Section III-C: after the
accurate results pass through ReLU, predicted-effectual neurons that turned
out ineffectual are corrected from 1 to 0, and the corrected OMap becomes
the next layer's input sparsity map (IMap).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "switching_map",
    "mix_outputs",
    "correct_omap_after_relu",
    "imap_from_activations",
    "SWITCHING_RULES",
]

#: Activation names with a defined switching rule (Eq. 3).
SWITCHING_RULES = ("relu", "sigmoid", "tanh")


def switching_map(
    y_approx: np.ndarray,
    activation: str,
    threshold: float,
    guard_band: float = 0.0,
) -> np.ndarray:
    """Compute the binary switching map ``m`` from approximate results.

    Args:
        y_approx: approximate pre-activations ``y'`` (any shape).
        activation: one of ``relu``, ``sigmoid``, ``tanh``.
        threshold: the tuned threshold ``theta`` (must be non-negative for
            saturating rules, where it bounds ``|y'|``).
        guard_band: non-negative hysteresis margin around the threshold.
            Activations within the band of the decision boundary are
            treated as sensitive even though the bare rule would keep the
            approximate result -- the reliability layer widens the band to
            absorb a biased or noisy Speculator (a borderline ``y'`` is
            exactly where a small systematic error flips the decision).
            ``0.0`` reproduces the paper's Eq. (3) rule unchanged.

    Returns:
        ``m`` with the same shape, dtype ``uint8``: 1 = sensitive (Executor
        must compute), 0 = insensitive (approximate result kept).

    Raises:
        ValueError: on an unknown activation name, a negative guard band,
            or a NaN threshold or guard band (±inf stay legal: all
            sensitive or all insensitive).
    """
    if math.isnan(threshold) or math.isnan(guard_band):
        raise ValueError(
            f"threshold and guard_band must not be NaN, got {threshold}, {guard_band}"
        )
    if guard_band < 0:
        raise ValueError(f"guard_band must be non-negative, got {guard_band}")
    y_approx = np.asarray(y_approx)
    if activation == "relu":
        return (y_approx >= threshold - guard_band).astype(np.uint8)
    if activation in ("sigmoid", "tanh"):
        if threshold < 0:
            raise ValueError(
                f"saturation threshold must be non-negative, got {threshold}"
            )
        return (np.abs(y_approx) <= threshold + guard_band).astype(np.uint8)
    raise ValueError(
        f"no switching rule for activation {activation!r}; "
        f"expected one of {SWITCHING_RULES}"
    )


def mix_outputs(
    y_accurate: np.ndarray, y_approx: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Assemble the final pre-activation vector (Eq. 2).

    ``y = y_accurate * m + y_approx * (1 - m)``.  ``y_accurate`` only needs
    valid values where ``m == 1``; positions with ``m == 0`` are never read.
    """
    y_accurate = np.asarray(y_accurate, dtype=np.float64)
    y_approx = np.asarray(y_approx, dtype=np.float64)
    if y_accurate.shape != y_approx.shape or y_accurate.shape != m.shape:
        raise ValueError(
            f"shape mismatch: accurate {y_accurate.shape}, "
            f"approx {y_approx.shape}, map {np.asarray(m).shape}"
        )
    mask = np.asarray(m, dtype=bool)
    return np.where(mask, y_accurate, y_approx)


def correct_omap_after_relu(
    omap: np.ndarray, activated: np.ndarray
) -> np.ndarray:
    """Correct predicted-effectual neurons that ReLU zeroed out.

    Paper Section III-C: "if a predicted effectual neuron turns out to be
    ineffectual after ReLU, we will update the switching index of that
    neuron from 1 to 0".  The corrected map is written back to the GLB and
    reused as the next layer's IMap with higher sparsity.

    Args:
        omap: the switching map used for this layer (1 = computed).
        activated: the post-ReLU activations aligned with ``omap``.

    Returns:
        The corrected map: 1 only where the neuron was computed *and* is
        nonzero after ReLU.
    """
    omap = np.asarray(omap)
    activated = np.asarray(activated)
    if omap.shape != activated.shape:
        raise ValueError(f"shape mismatch: {omap.shape} vs {activated.shape}")
    return (omap.astype(bool) & (activated > 0)).astype(np.uint8)


def imap_from_activations(activations: np.ndarray) -> np.ndarray:
    """Input sparsity map: 1 where the input activation is nonzero.

    For CNN layers the ineffectual neurons are set to zero, so the
    (corrected) OMap of layer L doubles as the IMap of layer L+1; this
    helper derives the same map directly from an activation tensor for the
    first layer or for baselines that detect input sparsity online
    (Cnvlutin-style).
    """
    return (np.asarray(activations) != 0).astype(np.uint8)
