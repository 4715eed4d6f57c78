"""Dual-module processing -- the paper's primary contribution.

Given a pre-trained DNN layer (the *accurate module*), DUET learns a
lightweight *approximate module* (quantized + dimension-reduced, "QDR")
offline via knowledge distillation, then at inference time:

1. runs the approximate module on (quantized) input activations,
2. applies threshold-based neuron-wise *dynamic switching* (Eq. 3) to
   decide which output activations fall in the insensitive region of the
   nonlinearity,
3. runs the accurate module only for the sensitive activations, and
4. mixes the two results (Eq. 2): ``y = y_acc * m + y_approx * (1 - m)``.

Modules:

- :mod:`repro.core.projection` -- ternary random projection (Achlioptas
  distribution), applied with additions/accumulations only.
- :mod:`repro.core.switching`  -- switching-map rules for ReLU and
  sigmoid/tanh, map correction and IMap derivation.
- :mod:`repro.core.approx`     -- QDR approximate modules for Linear,
  Conv2d, LSTM and GRU cells.
- :mod:`repro.core.distill`    -- offline distillation (Eq. 1) as a
  closed-form per-layer ridge regression.
- :mod:`repro.core.dual`       -- online dual-module layers with full
  FLOPs / memory-access accounting.
- :mod:`repro.core.thresholds` -- per-layer threshold tuning under a
  quality budget.
- :mod:`repro.core.stats`      -- insensitive-region statistics (Fig. 2)
  and savings accounting (Fig. 10).
- :mod:`repro.core.cache`      -- content-fingerprint memoization of
  im2col buffers, switching maps and tuned thresholds for the offline
  calibration sweeps.
"""

from repro.core.approx import ApproximateLinear
from repro.core.distill import distill_linear
from repro.core.dual import DualModuleLinear

__all__ = ["ApproximateLinear", "distill_linear", "DualModuleLinear"]
