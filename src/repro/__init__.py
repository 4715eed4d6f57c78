"""DUET reproduction: dual-module DNN processing and accelerator simulation.

Reproduction of Liu Liu et al., *DUET: Boosting Deep Neural Network
Efficiency on Dual-Module Architecture* (MICRO 2020), as a pure-Python
library.  Subpackages:

- :mod:`repro.core` -- the paper's contribution: dual-module processing
  (ternary random projection, QDR approximate modules, distillation,
  threshold-based dynamic switching).
- :mod:`repro.nn` -- numpy NN training substrate (no external DL
  framework required).
- :mod:`repro.quant` -- fixed-point and quantization substrate.
- :mod:`repro.models` -- shape-exact model zoo (AlexNet, ResNet, VGG,
  LSTM/GRU LMs, GNMT) plus trainable proxies.
- :mod:`repro.workloads` -- turning models into architecture workloads.
- :mod:`repro.sim` -- the DUET accelerator simulator (Executor, Speculator,
  GLB, NoC, DRAM, adaptive mapping, pipelines, energy/area models).
- :mod:`repro.baselines` -- Eyeriss / Cnvlutin / SnaPEA / Predict /
  single-module comparison architectures.

See DESIGN.md for the system inventory and per-experiment index, and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

from repro import baselines, core, experiments, models, nn, sim, workloads

__all__ = [
    "core",
    "nn",
    "models",
    "workloads",
    "sim",
    "baselines",
    "experiments",
    "__version__",
]
