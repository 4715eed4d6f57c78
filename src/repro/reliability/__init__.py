"""Fault injection, online guards, and graceful degradation.

The dual-module design has a built-in asymmetry the paper leans on for
efficiency and this package leans on for robustness: the Speculator and
its switching maps are *advisory*.  When they are wrong the accelerator
loses efficiency or output quality -- never the values the Executor
computed, and never forward progress.  The subsystem has four parts:

- :mod:`~repro.reliability.faults` -- composable, seeded fault models
  (map bit flips, weight-memory corruption, DRAM transfer errors, stuck
  PE rows, Speculator bias) grouped into named campaigns.
- :mod:`~repro.reliability.guards` -- map checksums with fail-safe dense
  fallback, weight-memory scrubbing, and the sampled
  Speculator-vs-Executor consistency audit.
- :mod:`~repro.reliability.degrade` -- the monotone stage-ladder policy
  (DUET -> IOS -> BOS -> OS -> BASE) driven by audit and guard budgets.
- :mod:`~repro.reliability.runner` -- campaign runner: the analytical
  degradation run plus the MAC-level invariant probe, rendered by
  ``python -m repro faults``.
- :mod:`~repro.reliability.workerfaults` -- seeded worker/fleet fault
  streams (crash, hang, straggle) consumed by the fault-tolerant serving
  tier (:mod:`repro.serving.faulttol`).
"""

from repro.reliability.context import GuardSettings
from repro.reliability.faults import CAMPAIGNS
from repro.reliability.runner import run_fault_campaign

__all__ = ["CAMPAIGNS", "GuardSettings", "run_fault_campaign"]
