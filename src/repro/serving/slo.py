"""SLO accounting: latency percentiles, throughput, reject/degrade rates.

Everything here is computed from the closed
:class:`~repro.serving.request.RequestRecord` set of one serving run, in
simulated time only -- no wall clocks -- so a summary (and the JSON bench
document built from it) is byte-identical across repeated runs of the
same seed and trace.

Percentiles use the **nearest-rank** definition (the smallest recorded
value with at least ``q``% of samples at or below it): standard for
latency SLOs, exact on small samples, and free of interpolation noise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.reporting import format_percent
from repro.serving.overload import SERVING_LADDER
from repro.serving.request import RequestRecord

__all__ = ["SloSummary", "percentile", "summarize"]

#: The percentile points every summary reports.
_POINTS = (50, 95, 99)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values.

    Args:
        sorted_values: non-empty, ascending.
        q: percentile in (0, 100].
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


def _distribution(values_ms: list[float]) -> dict:
    """p50/p95/p99/mean/max of a latency sample, in milliseconds."""
    if not values_ms:
        return {f"p{q}": None for q in _POINTS} | {"mean": None, "max": None}
    ordered = sorted(values_ms)
    dist = {f"p{q}": percentile(ordered, q) for q in _POINTS}
    dist["mean"] = sum(ordered) / len(ordered)
    dist["max"] = ordered[-1]
    return dist


def _reason_counts(records: list[RequestRecord]) -> dict:
    """Reject/fail reason -> count over ``records``, sorted by reason."""
    counts: dict = {}
    for r in records:
        reason = r.reject_reason or "unknown"
        counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items()))


def _duration_cycles(records: list[RequestRecord]) -> int:
    """Cycles from the first arrival to the last terminal event."""
    start = min((r.request.arrival_cycle for r in records), default=0)
    end = max(
        (
            r.completion_cycle if r.completion_cycle is not None
            else r.request.arrival_cycle
            for r in records
        ),
        default=0,
    )
    return max(end - start, 0)


def _stage_counts(completed: list[RequestRecord], ladder: tuple[str, ...]) -> dict:
    """Serving-ladder rung -> completions served there (zeros included)."""
    counts = {stage: 0 for stage in ladder}
    for r in completed:
        if r.stage is not None:
            counts[r.stage] = counts.get(r.stage, 0) + 1
    return counts


def _exit_means(completed: list[RequestRecord]) -> dict:
    """Early exits and mean exit depth / quality drop of completions
    (full depth and no drop when nothing completed)."""
    n = len(completed)
    return {
        "early_exits": sum(1 for r in completed if r.exited_early),
        "mean_exit_depth": (
            sum(r.exit_depth for r in completed) / n if n else 1.0
        ),
        "mean_quality_drop": (
            sum(r.quality_drop for r in completed) / n if n else 0.0
        ),
    }


@dataclass(frozen=True)
class SloSummary:
    """The SLO account of one serving run.

    Attributes:
        offered / completed / rejected: request counters.
        reject_rate: rejected / offered.
        rejects_by_reason: 429-style reason -> count.
        duration_ms: simulated makespan (first arrival to last event).
        throughput_rps: completed requests per simulated second.
        latency_ms: end-to-end latency distribution (p50/p95/p99/mean/max).
        queue_ms: queueing-delay distribution (same points).
        batches: number of dispatches.
        mean_batch_size: completed / batches.
        stage_counts: serving-ladder rung -> completed requests served
            there (every rung listed, zeros included).
        degraded: completed requests served below the top rung.
        degrade_rate: degraded / completed.
        early_exits: completed requests served at an early-exit head
            (quality shedding; 0 when the run was static or always-late).
        early_exit_rate: early_exits / completed.
        mean_exit_depth: mean backbone-depth fraction over completed
            requests (1.0 for static / always-late runs).
        mean_quality_drop: mean estimated accuracy delta over completed
            requests (0.0 for static / always-late runs).
    """

    offered: int
    completed: int
    rejected: int
    reject_rate: float
    rejects_by_reason: dict
    duration_ms: float
    throughput_rps: float
    latency_ms: dict
    queue_ms: dict
    batches: int
    mean_batch_size: float
    stage_counts: dict
    degraded: int
    degrade_rate: float
    early_exits: int = 0
    early_exit_rate: float = 0.0
    mean_exit_depth: float = 1.0
    mean_quality_drop: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready form: every field, in declaration order."""
        return asdict(self)

    def format(self) -> str:
        """Multi-line plain-text rendering for the CLI."""

        def dist(d: dict) -> str:
            if d["p50"] is None:
                return "n/a"
            return (
                f"p50 {d['p50']:8.3f} ms  p95 {d['p95']:8.3f} ms  "
                f"p99 {d['p99']:8.3f} ms  (mean {d['mean']:.3f}, "
                f"max {d['max']:.3f})"
            )

        lines = [
            f"  offered    : {self.offered} requests, {self.completed} "
            f"completed, {self.rejected} rejected "
            f"({format_percent(self.reject_rate)})",
            f"  latency    : {dist(self.latency_ms)}",
            f"  queue wait : {dist(self.queue_ms)}",
            f"  throughput : {self.throughput_rps:.1f} req/s over "
            f"{self.duration_ms:.1f} ms simulated",
            f"  batching   : {self.batches} dispatches, mean size "
            f"{self.mean_batch_size:.2f}",
        ]
        stages = "  ".join(
            f"{stage}={self.stage_counts.get(stage, 0)}"
            for stage in SERVING_LADDER
        )
        lines.append(
            f"  stages     : {stages}  (degraded {self.degraded}, "
            f"{format_percent(self.degrade_rate)})"
        )
        if self.early_exits:
            lines.append(
                f"  quality    : {self.early_exits} early exits "
                f"({format_percent(self.early_exit_rate)}), mean depth "
                f"{self.mean_exit_depth:.3f}, mean est. accuracy drop "
                f"{format_percent(self.mean_quality_drop)}"
            )
        if self.rejects_by_reason:
            reasons = "  ".join(
                f"{reason}={count}"
                for reason, count in self.rejects_by_reason.items()
            )
            lines.append(f"  rejects    : {reasons}")
        return "\n".join(lines)


def summarize(
    records: list[RequestRecord],
    clock_hz: float = 1e9,
    ladder: tuple[str, ...] = SERVING_LADDER,
) -> SloSummary:
    """Fold a run's closed records into its :class:`SloSummary`."""
    to_ms = lambda cycles: cycles / clock_hz * 1e3  # noqa: E731
    completed = [r for r in records if r.completed]
    rejected = [r for r in records if not r.completed]
    duration_cycles = _duration_cycles(records)
    duration_s = duration_cycles / clock_hz

    batches = sum(1.0 / r.batch_size for r in completed if r.batch_size)
    batches = int(round(batches))
    stage_counts = _stage_counts(completed, ladder)
    degraded = sum(
        count for stage, count in stage_counts.items() if stage != ladder[0]
    )
    exits = _exit_means(completed)

    return SloSummary(
        offered=len(records),
        completed=len(completed),
        rejected=len(rejected),
        reject_rate=len(rejected) / len(records) if records else 0.0,
        rejects_by_reason=_reason_counts(rejected),
        duration_ms=to_ms(duration_cycles),
        throughput_rps=len(completed) / duration_s if duration_s > 0 else 0.0,
        latency_ms=_distribution([to_ms(r.latency_cycles) for r in completed]),
        queue_ms=_distribution([to_ms(r.queue_cycles) for r in completed]),
        batches=batches,
        mean_batch_size=len(completed) / batches if batches else 0.0,
        stage_counts=stage_counts,
        degraded=degraded,
        degrade_rate=degraded / len(completed) if completed else 0.0,
        early_exit_rate=(
            exits["early_exits"] / len(completed) if completed else 0.0
        ),
        **exits,
    )
