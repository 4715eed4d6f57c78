"""Offline distillation of approximate modules (paper Eq. 1).

The approximate module is the "student" and the original layer the
"teacher": we minimise the squared error between accurate and approximate
pre-activations over calibration inputs,

    min_{W', b'}  sum_s || (W x + b) - (W' P x + b') ||_2^2 .

With the ternary projection ``P`` fixed, this is linear least squares in
``(W', b')`` and admits a closed-form ridge solution -- which is what the
functions here compute.  Each function takes an accurate module from
:mod:`repro.nn` plus calibration data, fits the paired approximate module
in place, and returns the residual error so callers can monitor
approximation quality.

For RNN cells, calibration pairs are gathered across *all* time steps of
the calibration sequences, matching the paper's "sum the loss of all
time-steps in back-propagation" (Section II-B).

Distillation is quantization-aware by default: the regression features are
the projections of *quantized* inputs, exactly what the Speculator's INT4
datapath will feed the QDR weights at inference time.  Fitting on float
inputs instead produces weights that rely on fine cancellations which INT4
quantization then breaks (a ~10-100x approximation-error difference,
reproduced in the test suite).
"""

from __future__ import annotations

import numpy as np

from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLinear,
    ApproximateLSTMCell,
)
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear
from repro.nn.recurrent import GRUCell, LSTMCell

__all__ = [
    "ridge_fit",
    "distill_linear",
    "distill_conv2d",
    "distill_lstm_cell",
    "distill_gru_cell",
]


def ridge_fit(
    features: np.ndarray, targets: np.ndarray, ridge: float = 1e-4
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the Eq.-(1) least squares with an intercept.

    Args:
        features: design matrix of shape ``(samples, k)`` (projected inputs).
        targets: teacher pre-activations of shape ``(samples, n)``.
        ridge: *relative* Tikhonov regulariser -- scaled by the mean
            feature power so the shrinkage strength is invariant to the
            feature scale and sample count (the intercept row is not
            regularised).  Shrinkage matters beyond conditioning: weights
            fitted with near-zero ridge exploit fine cancellations that
            INT4 input quantization then breaks.

    Returns:
        ``(weight, bias, rmse)`` where ``weight`` has shape ``(n, k)``,
        ``bias`` has shape ``(n,)`` and ``rmse`` is the root-mean-square
        residual of the fit.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0]:
        raise ValueError(
            f"sample mismatch: {features.shape[0]} features rows vs "
            f"{targets.shape[0]} target rows"
        )
    samples, k = features.shape
    design = np.concatenate([features, np.ones((samples, 1))], axis=1)
    gram = design.T @ design
    feature_power = float(np.mean(features**2)) if features.size else 1.0
    lam = ridge * max(feature_power, 1e-12) * samples
    reg = np.eye(k + 1) * lam
    reg[-1, -1] = 0.0  # do not shrink the intercept
    solution = np.linalg.solve(gram + reg, design.T @ targets)
    weight = solution[:k].T
    bias = solution[k]
    residual = design @ solution - targets
    rmse = float(np.sqrt(np.mean(residual**2)))
    return weight, bias, rmse


def distill_linear(
    accurate: Linear,
    approx: ApproximateLinear,
    calibration_inputs: np.ndarray,
    ridge: float = 1e-4,
    quantization_aware: bool = True,
) -> float:
    """Fit an :class:`ApproximateLinear` to its accurate twin.

    Args:
        accurate: the teacher ``Linear`` layer.
        approx: the student module (its projection stays fixed).
        calibration_inputs: inputs of shape ``(samples, in_features)``.
        ridge: regulariser for :func:`ridge_fit`.

    Returns:
        The fit RMSE on the calibration set (pre-activation units).
    """
    if accurate.in_features != approx.in_features:
        raise ValueError("accurate/approx input dimensions disagree")
    if accurate.out_features != approx.out_features:
        raise ValueError("accurate/approx output dimensions disagree")
    x = np.asarray(calibration_inputs, dtype=np.float64)
    teacher = x @ accurate.weight.data.T
    if accurate.bias is not None:
        teacher = teacher + accurate.bias.data
    reduced = approx.reduce(x, quantized=quantization_aware)
    weight, bias, rmse = ridge_fit(reduced, teacher, ridge)
    approx.weight = weight
    approx.bias = bias
    return rmse


def distill_conv2d(
    accurate: Conv2d,
    approx: ApproximateConv2d,
    calibration_inputs: np.ndarray,
    ridge: float = 1e-4,
    max_samples: int = 20000,
    rng: np.random.Generator | None = None,
    quantization_aware: bool = True,
) -> float:
    """Fit an :class:`ApproximateConv2d` via the im2col lowering.

    Receptive-field columns are extracted from the calibration images and
    subsampled to at most ``max_samples`` rows before the ridge solve.

    Returns:
        The fit RMSE on the (sub)sampled calibration columns.
    """
    if accurate.kernel_size != approx.kernel_size:
        raise ValueError("accurate/approx kernel sizes disagree")
    if accurate.stride != approx.stride or accurate.padding != approx.padding:
        raise ValueError("accurate/approx geometry disagrees")
    x = np.asarray(calibration_inputs, dtype=np.float64)
    cols = F.im2col(x, accurate.kernel_size, accurate.stride, accurate.padding)
    if cols.shape[0] > max_samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        idx = rng.choice(cols.shape[0], size=max_samples, replace=False)
        cols = cols[idx]
    w_mat = accurate.weight.data.reshape(accurate.out_channels, -1)
    teacher = cols @ w_mat.T
    if accurate.bias is not None:
        teacher = teacher + accurate.bias.data
    reduced = approx.inner.reduce(cols, quantized=quantization_aware)
    weight, bias, rmse = ridge_fit(reduced, teacher, ridge)
    approx.inner.weight = weight
    approx.inner.bias = bias
    return rmse


def _collect_recurrent_pairs(cell, sequences: np.ndarray):
    """Run ``cell`` over sequences collecting (x_t, h_{t-1}, pre-activation).

    Works for both LSTM and GRU cells; for the GRU the teacher target for
    the candidate gate includes the true reset-gate modulation (the
    cell's ``cache["pre"]``).
    """
    if not isinstance(cell, (LSTMCell, GRUCell)):
        raise TypeError(f"unsupported cell type {type(cell).__name__}")
    _, _, caches = cell.unroll(np.asarray(sequences, dtype=np.float64))
    return tuple(
        np.concatenate([cache[key] for cache in caches])
        for key in ("x", "h_prev", "pre")
    )


def _distill_recurrent(cell, approx, calibration_sequences, ridge,
                       quantization_aware=True):
    from repro.core.approx import _quantize_dequantize

    if cell.input_size != approx.input_size:
        raise ValueError("accurate/approx input sizes disagree")
    if cell.hidden_size != approx.hidden_size:
        raise ValueError("accurate/approx hidden sizes disagree")
    xs, hs, pres = _collect_recurrent_pairs(cell, calibration_sequences)
    if quantization_aware:
        rx = approx.proj_x.apply(_quantize_dequantize(xs, approx.input_bits))
        rh = approx.proj_h.apply(_quantize_dequantize(hs, approx.input_bits))
    else:
        rx = approx.proj_x.apply(xs)
        rh = approx.proj_h.apply(hs)
    features = np.concatenate([rx, rh], axis=1)
    weight, bias, rmse = ridge_fit(features, pres, ridge)
    kx = approx.reduced_input
    approx.w_ih = weight[:, :kx].copy()
    approx.w_hh = weight[:, kx:].copy()
    approx.bias = bias
    return rmse


def distill_lstm_cell(
    accurate: LSTMCell,
    approx: ApproximateLSTMCell,
    calibration_sequences: np.ndarray,
    ridge: float = 1e-4,
) -> float:
    """Fit an :class:`ApproximateLSTMCell` from calibration sequences.

    Args:
        accurate: teacher LSTM cell.
        approx: student QDR cell.
        calibration_sequences: inputs of shape ``(T, batch, input_size)``;
            the cell is unrolled from a zero state and (x, h) pairs from
            every time step enter the regression.

    Returns:
        The fit RMSE over all gates and time steps.
    """
    return _distill_recurrent(accurate, approx, calibration_sequences, ridge)


def distill_gru_cell(
    accurate: GRUCell,
    approx: ApproximateGRUCell,
    calibration_sequences: np.ndarray,
    ridge: float = 1e-4,
) -> float:
    """Fit an :class:`ApproximateGRUCell` from calibration sequences.

    The teacher target for the candidate gate includes the true reset-gate
    modulation, so the student's additive form absorbs its average effect.

    Returns:
        The fit RMSE over all gates and time steps.
    """
    return _distill_recurrent(accurate, approx, calibration_sequences, ridge)
