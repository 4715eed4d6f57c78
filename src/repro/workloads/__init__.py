"""Architecture workloads: models + sparsity -> per-layer simulator inputs.

The cycle-level simulator needs, per layer, the switching maps (OMap) and
input sparsity maps (IMap) that drive computation skipping.  Two sources
are supported:

- :mod:`repro.workloads.sparsity` -- calibrated synthetic map generators
  for the full-size model shapes (ImageNet-scale CNNs, 1024-wide RNNs),
  with channel-level workload variance that reproduces the imbalance
  phenomena of paper Section IV-A.
- :mod:`repro.workloads.traces` -- extraction of *measured* maps from
  dual-module proxy runs (:mod:`repro.models.dualize`), used to validate
  the synthetic generators and to drive small-scale end-to-end runs.
"""

from repro.workloads.sparsity import (
    SparsityModel,
    cnn_workloads,
    rnn_workloads,
)
from repro.workloads.traces import trace_cnn_workloads

__all__ = [
    "SparsityModel",
    "cnn_workloads",
    "rnn_workloads",
    "trace_cnn_workloads",
]
