"""Admission control: token-bucket rate limiting + queue-depth shedding.

The front door of the serving tier.  Two independent checks run on every
arrival, and either produces a 429-style reject:

1. **Token bucket** (optional): a bucket of ``burst`` tokens refilled at
   ``rate_limit_rps`` tokens per simulated second.  An arrival that finds
   the bucket empty is rejected :data:`~repro.serving.request.REJECT_RATE_LIMITED`.
   This caps the *sustained* rate a tenant can push while absorbing short
   bursts up to the bucket size.
2. **Queue bound**: an arrival that would push the batcher's pending
   depth past ``max_queue_depth`` is rejected
   :data:`~repro.serving.request.REJECT_QUEUE_FULL`.  Bounding the queue
   bounds the worst-case queueing delay -- an unbounded queue converts
   overload into unbounded latency, which for interactive inference is
   just a slower way to fail.

The queue-bound check is the serving tier's hard invariant: the pending
queue **never** exceeds ``max_queue_depth`` (property-tested in
``tests/serving/test_server.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.request import REJECT_QUEUE_FULL, REJECT_RATE_LIMITED
from repro.validation import check_range, require_range

__all__ = ["AdmissionConfig", "AdmissionController", "TokenBucket"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs.

    Attributes:
        max_queue_depth: hard bound on the batcher's pending depth.
        rate_limit_rps: sustained token-bucket refill rate in requests
            per simulated second; ``None`` disables rate limiting.
        burst: token-bucket capacity (maximum burst admitted at once).
    """

    max_queue_depth: int = 64
    rate_limit_rps: float | None = None
    burst: int = 16

    def __post_init__(self):
        check_range(self, "max_queue_depth", "burst", ge=1)
        check_range(self, "rate_limit_rps", gt=0, optional=True)


class TokenBucket:
    """A token bucket over simulated cycles.

    Args:
        rate_per_cycle: tokens refilled per cycle.
        burst: bucket capacity; the bucket starts full.
    """

    def __init__(self, rate_per_cycle: float, burst: int):
        require_range("TokenBucket.rate_per_cycle", rate_per_cycle, gt=0)
        self.rate_per_cycle = rate_per_cycle
        self.burst = burst
        self._tokens = float(burst)
        self._last_cycle = 0

    def take(self, now_cycle: int) -> bool:
        """Consume one token at ``now_cycle``; False when the bucket is dry."""
        elapsed = now_cycle - self._last_cycle
        if elapsed > 0:
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate_per_cycle
            )
            self._last_cycle = now_cycle
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionController:
    """Stateful admission decisions for one serving run.

    Attributes:
        config: the admission knobs.
        clock_hz: simulated clock (converts ``rate_limit_rps`` to a
            per-cycle refill rate).
        offered / admitted: running arrival counters.
        rejects_by_reason: per-reason reject counters.
    """

    config: AdmissionConfig = field(default_factory=AdmissionConfig)
    clock_hz: float = 1e9
    offered: int = 0
    admitted: int = 0
    rejects_by_reason: dict = field(default_factory=dict)

    def __post_init__(self):
        self._bucket = None
        if self.config.rate_limit_rps is not None:
            self._bucket = TokenBucket(
                rate_per_cycle=self.config.rate_limit_rps / self.clock_hz,
                burst=self.config.burst,
            )

    def admit(self, now_cycle: int, queue_depth: int) -> str | None:
        """Decide one arrival; returns None (admitted) or the reject reason.

        Args:
            now_cycle: arrival time.
            queue_depth: the batcher's pending depth *before* this
                arrival is queued.
        """
        self.offered += 1
        if self._bucket is not None and not self._bucket.take(now_cycle):
            return self._reject(REJECT_RATE_LIMITED)
        if queue_depth >= self.config.max_queue_depth:
            return self._reject(REJECT_QUEUE_FULL)
        self.admitted += 1
        return None

    def _reject(self, reason: str) -> str:
        self.rejects_by_reason[reason] = self.rejects_by_reason.get(reason, 0) + 1
        return reason
