"""Channel-to-PE-row scheduling: naive and adaptive mapping (Section IV-A).

The Executor processes a CONV layer in *steps*; each step maps one output
channel to each PE row, so ``executor_rows`` channels execute
concurrently.  With output switching, channels have unequal MAC counts and
a step lasts as long as its slowest channel -- the imbalance that caps OS
speedup at 1.20x in the paper.

Adaptive mapping reorders the channel sequence so channels with similar
workloads are grouped in the same step.  The hardware realisation is the
Speculator's Reorder Unit (1-bit adder trees summing switching indices per
channel, threshold comparison into buckets); this module provides both
that hardware-shaped bucket algorithm and the scheduling primitives the
cycle model uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "naive_schedule",
    "adaptive_schedule",
    "schedule_cycles",
    "ReorderUnit",
    "ReorderResult",
]


def naive_schedule(num_channels: int, rows: int) -> list[list[int]]:
    """Original-order channel groups: ``[0..rows)``, ``[rows..2*rows)``, ...

    The last group may be smaller (those PE rows idle).
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    return [
        list(range(start, min(start + rows, num_channels)))
        for start in range(0, num_channels, rows)
    ]


def adaptive_schedule(
    channel_workloads: np.ndarray, rows: int, buckets: int | None = None
) -> list[list[int]]:
    """Workload-sorted channel groups (the adaptive mapping).

    Channels are ordered by estimated workload (the Reorder Unit's
    switching-index sums) and grouped ``rows`` at a time, so co-scheduled
    channels have comparable MAC counts and the per-step maximum is close
    to the mean.  Output order inside the GLB is unchanged -- only the
    compute (filter-load) sequence is reordered, per the paper.

    Args:
        channel_workloads: estimated per-channel workload.
        rows: channels per group (the PE-array height).
        buckets: if given, quantise workloads into this many equal-width
            buckets before ordering -- the hardware Reorder Unit compares
            sums against preset interval thresholds rather than sorting
            exactly, leaving residual imbalance within a bucket.  ``None``
            means an exact (idealised) sort.
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    workloads = np.asarray(channel_workloads, dtype=np.float64)
    if buckets is not None:
        if buckets <= 0:
            raise ValueError(f"buckets must be positive, got {buckets}")
        hi = workloads.max() if workloads.size else 0.0
        if hi > 0:
            edges = np.linspace(0.0, hi, buckets + 1)[1:-1]
            workloads = np.searchsorted(edges, workloads).astype(np.float64)
    order = np.argsort(-workloads, kind="stable").tolist()
    return [order[start : start + rows] for start in range(0, len(order), rows)]


def schedule_cycles(
    channel_cycles: np.ndarray, schedule: list[list[int]]
) -> int:
    """Total Executor cycles for a channel schedule.

    Each scheduling step runs one channel per PE row; the step lasts as
    long as its slowest channel's row cycles; rows without a channel idle.

    Args:
        channel_cycles: per-channel row cycles (from
            :meth:`~repro.workloads.sparsity.CnnLayerWorkload.channel_cycles`).
        schedule: channel groups, one group per step.

    Returns:
        Sum over steps of the per-step maximum.
    """
    cycles = np.asarray(channel_cycles)
    total = 0
    for group in schedule:
        if group:
            total += int(max(cycles[c] for c in group))
    return total


@dataclass
class ReorderResult:
    """Output of the Reorder Unit for one mapping window.

    Attributes:
        buckets: channel ids per bucket, highest-workload bucket first.
        sequence: the flattened execution order the Executor follows.
        cycles: Reorder Unit latency in cycles.
    """

    buckets: list[list[int]]
    sequence: list[int]
    cycles: int


class ReorderUnit:
    """Hardware model of the Speculator's Reorder Unit (paper Fig. 8).

    1-bit adder trees sum the switching indices of each output channel's
    map tile; sums are compared against preset interval thresholds and the
    channel id is appended to the matching bucket.  Execution later drains
    buckets in order, giving the balanced channel sequence.

    Args:
        num_adders: switching bits summed per cycle (tree width).
        num_buckets: bucket count; the paper uses one bucket per PE-row
            group boundary.
    """

    def __init__(self, num_adders: int = 64, num_buckets: int = 4):
        if num_adders <= 0 or num_buckets <= 0:
            raise ValueError("num_adders and num_buckets must be positive")
        self.num_adders = num_adders
        self.num_buckets = num_buckets

    def reorder(self, channel_map_bits: np.ndarray) -> ReorderResult:
        """Bucket channels by switching-index sums.

        Args:
            channel_map_bits: array of shape ``(C, tile_bits)`` -- the OMap
                tile of each channel in the current window.

        Returns:
            A :class:`ReorderResult`; ``cycles`` counts adder-tree passes
            (``ceil(tile_bits / num_adders)`` per channel) plus one
            compare-and-append cycle per channel.
        """
        bits = np.asarray(channel_map_bits)
        if bits.ndim != 2:
            raise ValueError(f"expected (C, tile_bits), got shape {bits.shape}")
        num_channels, tile_bits = bits.shape
        sums = bits.sum(axis=1)
        # interval thresholds splitting [0, tile_bits] evenly
        edges = np.linspace(0, tile_bits, self.num_buckets + 1)[1:-1]
        buckets: list[list[int]] = [[] for _ in range(self.num_buckets)]
        for channel in range(num_channels):
            # bucket 0 holds the largest sums (drained first)
            bucket = self.num_buckets - 1 - int(np.searchsorted(edges, sums[channel]))
            buckets[bucket].append(channel)
        sequence = [c for bucket in buckets for c in bucket]
        passes_per_channel = int(np.ceil(tile_bits / self.num_adders))
        cycles = num_channels * (passes_per_channel + 1)
        return ReorderResult(buckets=buckets, sequence=sequence, cycles=cycles)
