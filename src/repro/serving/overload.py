"""Overload shedding: map queue occupancy onto the degradation ladder.

The serving tier reuses the reliability subsystem's stage ladder
(:data:`repro.reliability.degrade.DEGRADATION_LADDER`) as its overload
response: as the pending queue fills, dispatched batches are served at
progressively lower rungs -- ``DUET -> IOS -> BOS -> OS`` -- *before* the
admission controller starts rejecting at the queue bound.  ``BASE`` is
deliberately excluded: it is the fault-containment rung (Speculator fully
out of the loop) and overload is not a fault.

Stepping down the ladder sheds the Speculator's most power-hungry
machinery first -- adaptive mapping's Reorder Unit, then IMap
generation/transport -- which keeps a saturated chip inside its sustained
power envelope and shrinks the surface the online guards must police
exactly when queue pressure leaves the least slack for recovery work.
The trade is explicit and honest: lower rungs compute *more* outputs
exactly (quality never degrades below the accurate module) at somewhat
higher per-request latency, so the real overload relief comes from
batching and admission control; the ladder bounds speculative machinery
under pressure.  Sharing one ladder with the reliability subsystem means
operators reason about a single monotone degradation axis
(``docs/serving.md``).

Unlike the reliability policy -- monotone for a whole run because silicon
faults do not heal -- the overload rung tracks queue occupancy in both
directions: load is transient.  Monotonicity here is *in occupancy*:
``stage_for`` never returns a higher-capability rung for a deeper queue
(property-tested in ``tests/serving/test_server.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.degrade import DEGRADATION_LADDER
from repro.validation import check_range

__all__ = ["SERVING_LADDER", "OverloadPolicy"]

#: Overload rungs: the reliability ladder minus its fail-safe BASE rung.
SERVING_LADDER: tuple[str, ...] = DEGRADATION_LADDER[:-1]

if SERVING_LADDER != ("DUET", "IOS", "BOS", "OS"):  # pragma: no cover
    raise ImportError(
        f"repro.serving assumes the reliability ladder ends at BASE; got "
        f"{DEGRADATION_LADDER}"
    )


@dataclass(frozen=True)
class OverloadPolicy:
    """Occupancy thresholds selecting the serving rung.

    Attributes:
        thresholds: ascending occupancy fractions; a dispatch whose queue
            occupancy (pending depth / ``max_queue_depth``) exceeds the
            i-th threshold is served at least ``i+1`` rungs down.  Set
            every threshold to 1.0 to disable shedding (occupancy never
            strictly exceeds 1.0 -- the queue is bounded).
    """

    thresholds: tuple[float, ...] = (0.5, 0.7, 0.85)

    def __post_init__(self):
        if len(self.thresholds) != len(SERVING_LADDER) - 1:
            raise ValueError(
                f"OverloadPolicy.thresholds needs {len(SERVING_LADDER) - 1} "
                f"entries (one per step of {SERVING_LADDER}), got "
                f"{len(self.thresholds)}"
            )
        check_range(self, "thresholds", gt=0, le=1)
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError(
                f"OverloadPolicy.thresholds must be ascending, got "
                f"{self.thresholds}"
            )

    @classmethod
    def disabled(cls) -> "OverloadPolicy":
        """A policy that always serves at full DUET capability."""
        return cls(thresholds=(1.0,) * (len(SERVING_LADDER) - 1))

    def stage_for(self, queue_depth: int, queue_bound: int) -> str:
        """The rung for a dispatch decided at ``queue_depth`` pending
        requests under a ``queue_bound``-deep queue.  Monotone: deeper
        queue, never a higher-capability rung."""
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        occupancy = queue_depth / queue_bound
        rung = sum(occupancy > t for t in self.thresholds)
        return SERVING_LADDER[rung]
