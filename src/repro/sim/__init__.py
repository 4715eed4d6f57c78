"""DUET accelerator simulator (paper Sections III-IV).

Cycle-level (tile-granular) simulation of the dual-module architecture:

- :mod:`repro.sim.config` -- hardware configuration and evaluation stages.
- :mod:`repro.sim.pe` -- functional PE with MAC-instruction LUT skipping.
- :mod:`repro.sim.executor` -- 16x16 PE-array cycle model (CNN channel
  mapping with the Reorder Unit's adaptive order, FC/RNN row mapping).
- :mod:`repro.sim.functional` -- functional (ground-truth) PE-array
  execution used to validate the cycle model.
- :mod:`repro.sim.event` -- discrete-event schedule validating the
  pipeline-overlap assumptions.
- :mod:`repro.sim.tiling` -- GLB-constrained loop tiling (DRAM traffic).
- :mod:`repro.sim.speculator` -- quantizer / adder-tree / systolic / MFU /
  reorder pipeline model.
- :mod:`repro.sim.noc` / :mod:`repro.sim.dram` -- memory-system models.
- :mod:`repro.sim.pipeline` -- the CNN layer pipeline and RNN gate-level
  pipeline.
- :mod:`repro.sim.report` -- per-layer and per-model reports.
- :mod:`repro.sim.batching` / :mod:`repro.sim.sharding` -- batched and
  multi-chip execution.
- :mod:`repro.sim.energy` / :mod:`repro.sim.area` -- energy and area
  models (Fig. 12e/f, Table I).
- :mod:`repro.sim.accelerator` -- :class:`DuetAccelerator` top level.
"""

from repro.sim.accelerator import DuetAccelerator
from repro.sim.area import AreaModel
from repro.sim.config import DuetConfig

__all__ = [
    "DuetAccelerator",
    "DuetConfig",
    "AreaModel",
]
