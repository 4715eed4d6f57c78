"""Dynamic batching: per-model FIFO queues with max-batch / max-wait dispatch.

Requests for the *same model* can share a batch -- the accelerator
fetches the model's weights once and streams the batch's ifmaps through
them ("batches of ifmap", paper Section IV-A) -- so the batcher keeps one
FIFO queue per model and never mixes models in a dispatch.

Two classic dispatch conditions, whichever fires first:

- **max-batch**: a queue that has accumulated ``max_batch`` requests is
  dispatchable immediately (a full batch gains nothing by waiting);
- **max-wait**: a queue whose *oldest* request has waited
  ``max_wait_us`` is dispatchable with whatever it has -- the microbatch
  deadline that bounds the latency cost of waiting for co-batchable
  traffic.  ``max_wait_us=0`` degenerates to batchless FIFO serving.

When several queues are dispatchable the one with the oldest head goes
first (FIFO fairness across models); within a queue, strict FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.serving.request import Request
from repro.validation import check_range

__all__ = ["BatchPolicy", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch policy of the dynamic batcher.

    Attributes:
        max_batch: largest batch a single dispatch may carry (1 =
            batching disabled).
        max_wait_us: longest a request may sit queued waiting for
            co-batchable traffic before its queue is force-flushed, in
            simulated microseconds.
    """

    max_batch: int = 8
    max_wait_us: float = 200.0

    def __post_init__(self):
        check_range(self, "max_batch", ge=1)
        check_range(self, "max_wait_us", ge=0)

    def max_wait_cycles(self, clock_hz: float) -> int:
        """The microbatch deadline in simulated cycles."""
        return int(round(self.max_wait_us * 1e-6 * clock_hz))


class DynamicBatcher:
    """Per-model FIFO queues + the two-condition dispatch rule.

    Args:
        policy: dispatch policy (defaults to ``BatchPolicy()``).
        clock_hz: simulated clock, for the microsecond deadline.
    """

    def __init__(self, policy: BatchPolicy | None = None, clock_hz: float = 1e9):
        self.policy = policy if policy is not None else BatchPolicy()
        self._wait_cycles = self.policy.max_wait_cycles(clock_hz)
        self._queues: dict[str, deque[Request]] = {}
        self.depth = 0

    def push(self, request: Request) -> None:
        """Queue one admitted request."""
        self._queues.setdefault(request.model, deque()).append(request)
        self.depth += 1

    def push_front(self, request: Request) -> None:
        """Re-queue a handed-back request at the front of its model queue.

        Used by graceful drain: an evicted worker's not-yet-served work
        re-enters ahead of younger traffic, preserving the FIFO order the
        original dispatch honoured.
        """
        self._queues.setdefault(request.model, deque()).appendleft(request)
        self.depth += 1

    def _dispatchable(self, queue: deque[Request], now_cycle: int) -> bool:
        if len(queue) >= self.policy.max_batch:
            return True
        return now_cycle - queue[0].arrival_cycle >= self._wait_cycles

    def pop_batch(self, now_cycle: int) -> list[Request] | None:
        """Remove and return the next dispatchable batch, or None.

        Among dispatchable queues the one whose head arrived first wins;
        the batch is the queue's first ``max_batch`` requests.
        """
        best = None
        for model, queue in self._queues.items():
            if not self._dispatchable(queue, now_cycle):
                continue
            if best is None or queue[0].arrival_cycle < best[0].arrival_cycle:
                best = (queue[0], model, queue)
        if best is None:
            return None
        _, model, queue = best
        batch = [queue.popleft() for _ in range(min(len(queue), self.policy.max_batch))]
        if not queue:
            del self._queues[model]
        self.depth -= len(batch)
        return batch

    def next_flush_cycle(self) -> int | None:
        """Earliest cycle at which a currently-queued request forces a
        flush (its queue's max-wait deadline), or None when empty."""
        heads = [q[0].arrival_cycle for q in self._queues.values()]
        if not heads:
            return None
        return min(heads) + self._wait_cycles
