"""Quality-aware shedding: map queue occupancy onto exit thresholds.

The second overload axis (ROADMAP "input-adaptive selective execution"):
before the :class:`~repro.serving.overload.OverloadPolicy` starts
climbing the reliability ladder, a :class:`QualityPolicy` sheds *depth* --
dispatches under queue pressure are served with a lower early-exit
confidence threshold, so easy inputs leave the network at shallow heads
and the batch finishes sooner.  The two axes compose deliberately:

- The quality breakpoints default *below* the ladder's first threshold
  (0.5 occupancy), so a pressured server first trades a bounded, priced
  accuracy delta (``repro.dynamic.costmodel``) for cycles, and only
  then starts shedding the Speculator's machinery.
- Quality shedding is per *input* -- only requests whose seeded
  confidence clears the (now lower) threshold exit early; hard inputs
  still run full depth at any occupancy.

Like the overload rung, the threshold tracks occupancy in both
directions (load is transient) and is monotone in occupancy: a deeper
queue never yields a *higher* threshold (deeper exits).  At zero
pressure the threshold is :data:`~repro.dynamic.decision.ALWAYS_LATE`
(1.0), which is bit-identical to static full-depth serving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic.decision import ALWAYS_LATE
from repro.dynamic.executor import decision_drop
from repro.validation import check_range

__all__ = ["QualityPolicy", "decision_record_fields"]


def decision_record_fields(model: str, decision) -> dict:
    """``RequestRecord`` keyword fields for one sample's exit decision.

    Empty for static service (no decision), so records of quality-unaware
    runs keep their default exit fields.
    """
    if decision is None:
        return {}
    return {
        "exit": decision.exit_name,
        "exit_depth": decision.depth_fraction,
        "quality_drop": decision_drop(model, decision),
    }


@dataclass(frozen=True)
class QualityPolicy:
    """Occupancy breakpoints selecting the exit-confidence threshold.

    Attributes:
        occupancies: ascending occupancy fractions; a dispatch whose
            queue occupancy strictly exceeds the i-th breakpoint is
            served at ``thresholds[i]`` (the deepest exceeded breakpoint
            wins).  Below every breakpoint the threshold is
            ``ALWAYS_LATE`` -- full static depth.
        thresholds: exit-confidence thresholds paired with
            ``occupancies``, descending (more pressure, lower threshold,
            shallower permitted exits).
    """

    occupancies: tuple[float, ...] = (0.25, 0.4)
    thresholds: tuple[float, ...] = (0.85, 0.6)

    def __post_init__(self):
        if len(self.occupancies) != len(self.thresholds):
            raise ValueError(
                f"QualityPolicy needs one threshold per occupancy "
                f"breakpoint, got {len(self.occupancies)} occupancies and "
                f"{len(self.thresholds)} thresholds"
            )
        check_range(self, "occupancies", "thresholds", ge=0, le=1)
        if list(self.occupancies) != sorted(self.occupancies):
            raise ValueError(
                f"QualityPolicy.occupancies must be ascending, got "
                f"{self.occupancies}"
            )
        if list(self.thresholds) != sorted(self.thresholds, reverse=True):
            raise ValueError(
                f"QualityPolicy.thresholds must be descending (more "
                f"pressure, shallower exits), got {self.thresholds}"
            )

    @classmethod
    def disabled(cls) -> "QualityPolicy":
        """A policy that always serves at full static depth."""
        return cls(occupancies=(), thresholds=())

    @property
    def enabled(self) -> bool:
        """True when any occupancy level sheds quality."""
        return bool(self.occupancies)

    def threshold_for(self, queue_depth: int, queue_bound: int) -> float:
        """The exit-confidence threshold for a dispatch decided at
        ``queue_depth`` pending requests under a ``queue_bound``-deep
        queue.  Monotone: deeper queue, never a higher threshold."""
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        occupancy = queue_depth / queue_bound
        level = sum(occupancy > breakpoint for breakpoint in self.occupancies)
        if level == 0:
            return ALWAYS_LATE
        return self.thresholds[level - 1]
