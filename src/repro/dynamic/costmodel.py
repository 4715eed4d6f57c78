"""Exit-aware cost and quality pricing.

Every exit point of a registered early-exit variant gets two prices:

- **Cycles/energy** -- the truncated spec (backbone prefix + head) is
  run through the existing Executor/Speculator pipeline models via a
  :class:`~repro.sim.batching.BatchExecutor`, so exit costs use the
  exact same simulation the serving tier bills with.  The final exit's
  truncated spec *is* the original backbone spec object, so full-depth
  costs degenerate bit-identically to the static model's (pinned by
  ``tests/dynamic/test_parity.py``).
- **Estimated accuracy drop** -- a monotone quality model per backbone
  (:class:`ExitPricing`): leaving after a backbone-MAC fraction ``f``
  costs ``max_drop * (1 - f) ** exponent`` of accuracy.  Full depth is
  exactly 0.0 drop.  The constants are calibrated against the early-exit
  literature's shape (BranchyNet/D²NN: shallow exits lose a few percent,
  the curve flattens near full depth), not trained heads.

``tests/dynamic/test_costmodel.py::test_every_registered_backbone_is_priced``
checks that every backbone registered in
``repro.dynamic.exits.EXIT_REGISTRY`` has a priced entry in
:data:`EXIT_PRICING` here, and
``tests/dynamic/test_parity.py::test_this_suite_covers_the_whole_registry``
that the parity suite exercises it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic.exits import (
    EarlyExitModel,
    early_exit_model,
    truncated_spec,
)
from repro.models.layer_spec import ModelSpec

__all__ = [
    "EXIT_PRICING",
    "ExitCostModel",
    "ExitPricing",
    "estimated_accuracy_drop",
]


@dataclass(frozen=True)
class ExitPricing:
    """Quality price of leaving a backbone early.

    Attributes:
        max_drop: accuracy lost by exiting at depth fraction 0 (the
            asymptotic worst case; no registered exit sits there).
        exponent: curvature -- larger means the penalty concentrates in
            the shallowest exits and full-ish depth is nearly free.
    """

    max_drop: float
    exponent: float

    def __post_init__(self):
        if not 0.0 <= self.max_drop <= 1.0:
            raise ValueError(f"max_drop must be in [0, 1], got {self.max_drop}")
        if self.exponent <= 0.0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")

    def drop(self, depth_fraction: float) -> float:
        """Estimated accuracy drop for exiting at ``depth_fraction``."""
        if not 0.0 <= depth_fraction <= 1.0:
            raise ValueError(
                f"depth_fraction must be in [0, 1], got {depth_fraction}"
            )
        return self.max_drop * (1.0 - depth_fraction) ** self.exponent


#: Per-backbone quality model -- one priced entry per EXIT_REGISTRY key
#: (a tier-1 test keeps the two dicts in lock-step).
EXIT_PRICING: dict = {
    "alexnet": ExitPricing(max_drop=0.05, exponent=1.5),
    "resnet18": ExitPricing(max_drop=0.05, exponent=1.5),
    "vgg16": ExitPricing(max_drop=0.05, exponent=1.5),
}


def estimated_accuracy_drop(model_name: str, depth_fraction: float) -> float:
    """Quality price of serving ``model_name`` at ``depth_fraction``.

    Raises:
        KeyError: when the backbone has no priced quality model.
    """
    if model_name not in EXIT_PRICING:
        raise KeyError(
            f"model {model_name!r} has no exit pricing entry "
            f"(have {sorted(EXIT_PRICING)})"
        )
    return EXIT_PRICING[model_name].drop(depth_fraction)


class ExitCostModel:
    """Prices every exit of an early-exit variant on the simulator.

    Composes a :class:`~repro.sim.batching.BatchExecutor` rather than
    re-deriving accelerator construction: the executor owns the
    config/sparsity/memoization conventions, so exit prices are
    bit-compatible with what the serving tier charges for the same
    (spec, stage, workload_seed) -- including the full-depth exit, which
    shares the original spec object and therefore the original memo key.

    Args:
        executor: the pricing executor; defaults to a fresh
            ``BatchExecutor()`` (default hardware, fast path).
    """

    def __init__(self, executor=None):
        if executor is None:
            from repro.sim.batching import BatchExecutor

            executor = BatchExecutor()
        self.executor = executor

    def exit_report(
        self,
        model: EarlyExitModel,
        exit_name: str,
        workload_seed: int,
        stage: str | None = None,
    ):
        """The :class:`~repro.sim.report.ModelReport` of one exit's path."""
        spec = truncated_spec(model, exit_name)
        return self.executor.sample_report(spec, workload_seed, stage)

    def full_report(
        self,
        model: EarlyExitModel,
        workload_seed: int,
        stage: str | None = None,
    ):
        """The static full-depth report (the degeneration baseline)."""
        return self.executor.sample_report(model.spec, workload_seed, stage)

    def exit_table(
        self,
        model: str | ModelSpec | EarlyExitModel,
        workload_seed: int,
        stage: str | None = None,
    ) -> list:
        """Price every exit of ``model``: one row per exit, full last.

        Each row carries the exit's cycle/energy cost, its cycle
        reduction over full depth, and its estimated accuracy drop --
        the raw material of the Pareto sweep.
        """
        if not isinstance(model, EarlyExitModel):
            model = early_exit_model(model)
        full = self.full_report(model, workload_seed, stage)
        rows = []
        for exit_name in model.exit_names:
            report = self.exit_report(model, exit_name, workload_seed, stage)
            fraction = model.depth_fraction(exit_name)
            rows.append(
                {
                    "exit": exit_name,
                    "depth_fraction": fraction,
                    "total_cycles": report.total_cycles,
                    "compute_cycles": report.compute_cycles,
                    "memory_cycles": report.memory_cycles,
                    "energy_pj": report.energy.total,
                    "cycle_reduction_vs_full": (
                        full.total_cycles / report.total_cycles
                    ),
                    "estimated_accuracy_drop": estimated_accuracy_drop(
                        model.name, fraction
                    ),
                }
            )
        return rows
