"""Input-adaptive selective execution: early exits, pricing, decisions.

DUET's dual modules switch per *activation*; this package adds the
per-*input* axis (D²NN, arXiv:1701.00299): early-exit model variants
over the zoo (:mod:`repro.dynamic.exits`), seeded per-input exit
decisions (:mod:`repro.dynamic.decision`), exit-aware cycle/energy and
quality pricing (:mod:`repro.dynamic.costmodel`), and a batch executor
that routes each sample to its exit (:mod:`repro.dynamic.executor`).
The serving tier consumes it through
:class:`~repro.serving.quality.QualityPolicy` -- under queue pressure,
requests shed depth (quality) before the ladder sheds precision.
"""

from repro.dynamic.exits import early_exit_variants

__all__ = ["early_exit_variants"]
