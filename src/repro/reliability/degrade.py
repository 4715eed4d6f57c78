"""Graceful degradation: the stage ladder and its budget policy.

When the guards report trouble -- an audited misspeculation rate above
budget, repeated map-checksum failures, a flaky DRAM channel -- the right
response is not to crash but to *spend the faulting feature*: each DUET
evaluation stage (:data:`repro.sim.config.STAGES`) is also a rung on a
degradation ladder, because each stage removes exactly one class of
fault exposure:

=========  ==========================================================
``DUET``   full design -- exposed to every fault site
``IOS``    drops adaptive mapping (Reorder Unit out of the loop)
``BOS``    drops input switching -- IMap faults can no longer skip a
           needed MAC, closing the one value-corrupting map hazard
``OS``     output switching only, naive mapping
``BASE``   accurate-only -- the Speculator is out of the loop entirely;
           every output is computed by the Executor
=========  ==========================================================

The policy is deliberately **monotone**: it only ever steps down.  An
operator can re-arm a recovered machine; a policy that oscillates between
stages under a marginal fault rate would thrash the pipeline's
configuration mid-model.  Monotonicity also gives convergence for free --
with five rungs the stage is stable after at most four transitions, well
within one model pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reliability.report import DegradationEvent
from repro.sim.config import STAGES
from repro.validation import check_range

__all__ = ["DegradationBudget", "DegradationPolicy", "DEGRADATION_LADDER"]

#: Stage order from most capable to fail-safe (reverse of STAGES).
DEGRADATION_LADDER: tuple[str, ...] = tuple(reversed(STAGES))


@dataclass(frozen=True)
class DegradationBudget:
    """Operating budgets; exceeding any of them triggers a step down.

    Attributes:
        max_misspeculation_rate: audited dangerous-miss rate tolerated per
            layer (the paper's quality contract is ~1% top-1; a 2% audited
            miss rate on a layer is well past what threshold re-tuning
            could absorb).
        max_checksum_failure_rate: fraction of a layer's map channels
            allowed to fail CRC before the transport is considered bad.  A
            *rate* rather than a count: CONV layers range from a handful of
            channels to hundreds, and the per-channel failure probability
            grows with channel area, so any absolute count either ignores
            small layers or condemns large ones.
        max_dram_unrecoverable: unrecoverable off-chip transfers tolerated
            per layer (retried-and-recovered transfers are free: they cost
            cycles, not trust).
    """

    max_misspeculation_rate: float = 0.02
    max_checksum_failure_rate: float = 0.25
    max_dram_unrecoverable: int = 0

    def __post_init__(self):
        check_range(
            self,
            "max_misspeculation_rate",
            "max_checksum_failure_rate",
            ge=0,
            le=1,
        )
        check_range(self, "max_dram_unrecoverable", ge=0)


@dataclass
class DegradationPolicy:
    """Monotone stage-ladder controller.

    Attributes:
        budget: the operating budgets.
        initial_stage: rung the run starts at (usually ``DUET``).
        current_stage: the live operating stage.
        events: transitions taken, in order.
    """

    budget: DegradationBudget = field(default_factory=DegradationBudget)
    initial_stage: str = "DUET"
    current_stage: str = field(init=False)
    events: list[DegradationEvent] = field(default_factory=list)

    def __post_init__(self):
        if self.initial_stage not in STAGES:
            raise ValueError(
                f"unknown stage {self.initial_stage!r}; expected one of {STAGES}"
            )
        self.current_stage = self.initial_stage

    @property
    def at_floor(self) -> bool:
        """True once the fail-safe accurate-only stage is reached."""
        return self.current_stage == DEGRADATION_LADDER[-1]

    def _violations(
        self,
        misspeculation_rate: float,
        checksum_failures: int,
        channels_checked: int,
        dram_unrecoverable: int,
    ) -> list[str]:
        b = self.budget
        violations = []
        if misspeculation_rate > b.max_misspeculation_rate:
            violations.append(
                f"audited misspeculation rate {misspeculation_rate:.3f} "
                f"exceeds budget {b.max_misspeculation_rate:.3f}"
            )
        if channels_checked:
            failure_rate = checksum_failures / channels_checked
            if failure_rate > b.max_checksum_failure_rate:
                violations.append(
                    f"map-checksum failure rate {failure_rate:.3f} "
                    f"({checksum_failures}/{channels_checked} channels) "
                    f"exceeds budget {b.max_checksum_failure_rate:.3f}"
                )
        if dram_unrecoverable > b.max_dram_unrecoverable:
            violations.append(
                f"{dram_unrecoverable} unrecoverable DRAM transfers exceed "
                f"budget {b.max_dram_unrecoverable}"
            )
        return violations

    def observe(
        self,
        layer_name: str,
        misspeculation_rate: float = 0.0,
        checksum_failures: int = 0,
        channels_checked: int = 0,
        dram_unrecoverable: int = 0,
    ) -> str:
        """Feed one layer's guard statistics; returns the stage to use for
        the *next* layer (stepped down once if any budget was exceeded)."""
        violations = self._violations(
            misspeculation_rate,
            checksum_failures,
            channels_checked,
            dram_unrecoverable,
        )
        if violations and not self.at_floor:
            rung = DEGRADATION_LADDER.index(self.current_stage)
            new_stage = DEGRADATION_LADDER[rung + 1]
            self.events.append(
                DegradationEvent(
                    layer=layer_name,
                    from_stage=self.current_stage,
                    to_stage=new_stage,
                    reason="; ".join(violations),
                )
            )
            self.current_stage = new_stage
        return self.current_stage
