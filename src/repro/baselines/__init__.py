"""Comparison accelerators (paper Section V-E, Fig. 11b).

- :mod:`repro.baselines.eyeriss` -- dense execution with power gating.
- :mod:`repro.baselines.cnvlutin` -- input-sparsity skipping.
- :mod:`repro.baselines.snapea` -- output early termination.
- :mod:`repro.baselines.predict` -- coupled output prediction, and the
  Predict+Cnvlutin combination.

The single-module baseline of Fig. 11(a) -- DUET's Executor alone -- is
the simulator's ``BASE`` stage: ``DuetAccelerator(config=stage_config("BASE"))``.

All baselines are iso-MAC and iso-technology with DUET: they share the PE
array geometry, workloads, and energy constants, differing only in the
capabilities their :class:`~repro.baselines.base.BaselineCharacter`
grants.
"""

from repro.baselines.cnvlutin import cnvlutin
from repro.baselines.eyeriss import eyeriss
from repro.baselines.predict import predict, predict_cnvlutin
from repro.baselines.snapea import snapea

__all__ = ["eyeriss", "cnvlutin", "snapea", "predict", "predict_cnvlutin"]
