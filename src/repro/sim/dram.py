"""Off-chip DRAM model: bandwidth latency and transfer retries.

RNN execution is dominated by cyclically re-fetching weight matrices from
DRAM (paper Section IV-B); the dynamic switching maps let DUET fetch only
the rows belonging to sensitive output neurons.  This model converts byte
traffic to cycles at a configured bandwidth; the pipelines bill DRAM
energy from their own word counts.

For the reliability layer (:mod:`repro.reliability`) the interface also
models *flaky* channels: an optional fault stream may fail individual
transfers, which are then retried with exponential backoff.  A transfer
that exhausts its retries is recorded as unrecoverable -- the caller's
guards must treat the affected data as untrusted (fail-safe dense
execution) so that a flaky channel can cost cycles and accuracy but never
deliver silently-corrupted values.

The sharding tier (:mod:`repro.sim.sharding`) additionally prices
*multi-chip* DRAM access: tensor-split shards sit behind one physical
memory channel, so each chip's slice of the traffic streams at a
``1/chips`` share of the bandwidth (:func:`shared_channel_cycles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.validation import check_range

__all__ = ["Dram", "TransferRetryPolicy", "shared_channel_cycles"]


def shared_channel_cycles(num_bytes: int, bandwidth: int, chips: int = 1) -> int:
    """Cycles for one chip to move ``num_bytes`` over a shared channel.

    ``chips`` shards behind one physical DRAM channel each see a fair
    ``1/chips`` slice of the interface bandwidth, so a chip's transfer
    takes ``chips`` times the solo latency.  With ``chips=1`` this is
    exactly the plain bandwidth model.

    Args:
        num_bytes: this chip's slice of the traffic (0 is free).
        bandwidth: channel bandwidth in bytes per cycle.
        chips: chips concurrently sharing the channel (>= 1).
    """
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if chips < 1:
        raise ValueError(f"chips must be >= 1, got {chips}")
    if num_bytes == 0:
        return 0
    return math.ceil(num_bytes * chips / bandwidth)


@dataclass(frozen=True)
class TransferRetryPolicy:
    """Retry-with-backoff semantics for failed DRAM transfers.

    Attributes:
        max_retries: how many times a failed transfer is re-issued before
            it is declared unrecoverable.
        backoff_cycles: idle cycles inserted before the first retry; each
            further retry doubles the wait (exponential backoff, the
            standard policy for transient-channel errors).
    """

    max_retries: int = 3
    backoff_cycles: int = 8

    def __post_init__(self):
        check_range(self, "max_retries", "backoff_cycles", ge=0)

    def wait_before(self, retry_index: int) -> int:
        """Backoff cycles inserted before retry number ``retry_index`` (0-based)."""
        return self.backoff_cycles * (1 << retry_index)


class Dram:
    """Bandwidth model of the off-chip memory interface.

    Args:
        bandwidth: bytes per cycle at the accelerator clock.
        retry_policy: retry-with-backoff semantics for failed transfers.
        fault_stream: the channel's faults, or None for a clean channel:
            any object whose ``fails()`` says whether the next transfer
            attempt fails and whose ``failures(n, max_retries)`` gives the
            leading-failure counts of the next ``n`` transfers from the
            same draws (:class:`repro.reliability.faults.DramFaultStream`).

    Attributes:
        bandwidth: bytes per cycle at the accelerator clock.
        retries: transfers that were re-issued after a fault.
        failed_transfers: individual transfer attempts that faulted.
        unrecoverable_transfers: transfers still faulty after
            ``retry_policy.max_retries`` re-issues.

    Retransmission and backoff are charged as cycles in the values
    ``read``/``write`` return.
    """

    def __init__(
        self,
        bandwidth: int,
        retry_policy: TransferRetryPolicy | None = None,
        fault_stream=None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.fault_stream = fault_stream
        self.retry_policy = (
            retry_policy if retry_policy is not None else TransferRetryPolicy()
        )
        self.retries = 0
        self.failed_transfers = 0
        self.unrecoverable_transfers = 0

    def read(self, num_bytes: int) -> int:
        """One transfer; returns the cycles it occupies the interface."""
        if num_bytes < 0:
            raise ValueError("negative byte count")
        base = self.cycles_for(num_bytes)
        if self.fault_stream is None or num_bytes == 0:
            return base
        cycles = base
        for attempt in range(self.retry_policy.max_retries + 1):
            if not self.fault_stream.fails():
                return cycles
            self.failed_transfers += 1
            if attempt == self.retry_policy.max_retries:
                self.unrecoverable_transfers += 1
                return cycles
            self.retries += 1
            cycles += self.retry_policy.wait_before(attempt) + base
        return cycles

    def read_bulk(self, byte_counts):
        """Vectorised :meth:`read` over an integer array of transfer sizes.

        Fast-path helper: returns the per-entry cycle counts -- identical
        counters and cycles to calling :meth:`read` element by element,
        without the per-event Python overhead.  On a flaky channel the batch
        resolves every transfer's retry/backoff outcome vectorized from
        the same fault-stream draws the per-transfer path consumes, so
        counters and cycles stay bit-identical.

        Args:
            byte_counts: non-negative integer array (numpy).

        Returns:
            Integer array of interface cycles, same shape.
        """
        if byte_counts.size and int(byte_counts.min()) < 0:
            raise ValueError("negative byte count")
        if self.fault_stream is not None:
            return self._read_bulk_flaky(byte_counts)
        return -(-byte_counts // self.bandwidth)

    def _read_bulk_flaky(self, byte_counts) -> np.ndarray:
        """Vectorized flaky-channel reads, bit-identical to :meth:`read`.

        Transfer ``i`` with ``f`` leading failed attempts replays the
        per-event loop in closed form (``r = min(f, R)`` retries):

        - ``retries`` gains ``r``, ``failed_transfers`` gains ``f``, and
          ``f == R + 1`` marks the transfer unrecoverable;
        - the returned cycles are ``base`` plus the retry cost
          ``base * r + backoff * (2^r - 1)`` (each retry re-issues the
          transfer after exponential backoff).

        Zero-byte entries never consult the fault stream, exactly like
        the early return in :meth:`read`.
        """
        flat = np.asarray(byte_counts).ravel()
        base = -(-flat // self.bandwidth)
        cycles = base.copy()
        nonzero = np.flatnonzero(flat > 0)
        if nonzero.size:
            policy = self.retry_policy
            max_retries = policy.max_retries
            f = self.fault_stream.failures(int(nonzero.size), max_retries)
            r = np.minimum(f, max_retries)
            extra = base[nonzero] * r + policy.backoff_cycles * (
                np.left_shift(np.int64(1), r) - 1
            )
            self.retries += int(r.sum())
            self.failed_transfers += int(f.sum())
            self.unrecoverable_transfers += int((f > max_retries).sum())
            cycles[nonzero] += extra
        return cycles.reshape(np.asarray(byte_counts).shape)

    #: a write occupies the interface exactly like a read
    write = read

    def cycles_for(self, num_bytes: int) -> int:
        """Cycles to move ``num_bytes`` at the configured bandwidth."""
        return math.ceil(num_bytes / self.bandwidth)
