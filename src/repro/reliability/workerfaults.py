"""Seeded worker/fleet fault models: crash, hang, straggle.

PR 2's fault taxonomy covers failures *inside* one accelerator (bit
flips, flaky DRAM, stuck PE rows).  This module models the next level
up -- the failures of the *machines* the serving tier dispatches batches
to.  Three fates, drawn once per dispatched batch:

- **crash**: the worker process dies partway through the batch; the
  in-flight batch is lost and the worker stays dead until the health
  checker evicts and cold-restarts it.
- **hang**: the batch never completes (wedged driver, deadlocked
  runtime); the worker stops answering heartbeats but holds its slot
  until evicted and warm-restarted.
- **straggle**: the batch completes, but ``straggle_multiplier`` times
  slower than priced (thermal throttling, a noisy neighbour).

All randomness follows the :class:`~repro.reliability.faults.DramFaultStream`
discipline: per-worker generators descend from one root seed through
``numpy.random.SeedSequence.spawn``, so worker ``w``'s fate sequence is a
pure function of ``(seed, w)`` -- independent of every sibling, of the
dispatch interleaving across workers, and of any ``--jobs`` value.  A
respawned worker continues its slot's stream: fates are a property of
the slot's schedule, not of the incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.validation import check_range

__all__ = [
    "FATE_OK",
    "FATE_CRASH",
    "FATE_HANG",
    "FATE_STRAGGLE",
    "WorkerFate",
    "WorkerFaultModel",
    "WorkerFaultStream",
    "spawn_worker_streams",
]

#: Fate of a dispatched batch: served at the priced service time.
FATE_OK = "ok"
#: Fate: the worker dies mid-batch; the batch is lost.
FATE_CRASH = "crash"
#: Fate: the batch never completes until recovery machinery intervenes.
FATE_HANG = "hang"
#: Fate: the batch completes ``straggle_multiplier`` times slower.
FATE_STRAGGLE = "straggle"


@dataclass(frozen=True)
class WorkerFate:
    """One drawn fate.

    Attributes:
        kind: one of the ``FATE_*`` constants.
        crash_fraction: for crashes, how far through the priced service
            time the worker dies (uniform in ``[0, 1)``); 0.0 otherwise.
    """

    kind: str
    crash_fraction: float = 0.0


@dataclass(frozen=True)
class WorkerFaultModel:
    """Per-dispatch fault probabilities of a worker fleet.

    Attributes:
        crash_rate / hang_rate / straggle_rate: per-dispatched-batch
            probabilities of each fate (the remainder is ``ok``).
        straggle_multiplier: service-time multiplier of a straggling
            batch (>= 1).
        hot_workers: number of low-numbered worker slots whose fault
            rates are multiplied by ``hot_multiplier`` -- the "lemon"
            machines a per-worker circuit breaker exists to isolate.
        hot_multiplier: fault-rate multiplier of the hot slots (>= 1).
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    straggle_rate: float = 0.0
    straggle_multiplier: float = 4.0
    hot_workers: int = 0
    hot_multiplier: float = 1.0

    def __post_init__(self):
        check_range(
            self, "crash_rate", "hang_rate", "straggle_rate", ge=0, le=1
        )
        check_range(self, "straggle_multiplier", "hot_multiplier", ge=1)
        check_range(self, "hot_workers", ge=0)
        if self.total_rate(hot=True) >= 1.0:
            raise ValueError(
                "WorkerFaultModel rates (after the hot multiplier) must sum "
                f"below 1.0 so every dispatch can succeed, got "
                f"{self.total_rate(hot=True)}"
            )

    @property
    def faulty(self) -> bool:
        """Whether any fate other than ``ok`` can be drawn."""
        return (self.crash_rate + self.hang_rate + self.straggle_rate) > 0.0

    def total_rate(self, hot: bool = False) -> float:
        """Summed non-ok probability for a normal (or hot) worker."""
        scale = self.hot_multiplier if hot else 1.0
        return scale * (self.crash_rate + self.hang_rate + self.straggle_rate)

    def rates_for(self, worker: int) -> tuple[float, float, float]:
        """``(crash, hang, straggle)`` probabilities of worker slot ``worker``."""
        scale = self.hot_multiplier if worker < self.hot_workers else 1.0
        return (
            scale * self.crash_rate,
            scale * self.hang_rate,
            scale * self.straggle_rate,
        )


class WorkerFaultStream:
    """The seeded fate stream of one worker slot.

    Draws two uniforms per dispatch -- the fate selector and the crash
    fraction -- so the stream's consumption is independent of which fate
    was drawn, keeping fate ``k`` of slot ``w`` a pure function of
    ``(seed, w, k)``.
    """

    def __init__(
        self, rng: np.random.Generator, model: WorkerFaultModel, worker: int
    ):
        if worker < 0:
            raise ValueError(f"worker slot must be >= 0, got {worker}")
        self.rng = rng
        self.model = model
        self.worker = worker
        self.drawn = 0

    def draw_fate(self) -> WorkerFate:
        """The fate of this slot's next dispatched batch."""
        selector = float(self.rng.random())
        fraction = float(self.rng.random())
        self.drawn += 1
        crash, hang, straggle = self.model.rates_for(self.worker)
        if selector < crash:
            return WorkerFate(FATE_CRASH, crash_fraction=fraction)
        if selector < crash + hang:
            return WorkerFate(FATE_HANG)
        if selector < crash + hang + straggle:
            return WorkerFate(FATE_STRAGGLE)
        return WorkerFate(FATE_OK)


def spawn_worker_streams(
    seed: int, workers: int, model: WorkerFaultModel
) -> tuple[list[WorkerFaultStream], np.random.Generator]:
    """Per-slot fault streams plus the policy jitter generator.

    ``SeedSequence(seed).spawn(workers + 1)`` children seed the streams
    (child ``w`` -> slot ``w``) and the trailing child seeds the
    generator the retry machinery uses for backoff jitter -- all
    prefix-stable, so adding workers never reshuffles existing slots.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    children = np.random.SeedSequence(seed).spawn(workers + 1)
    streams = [
        WorkerFaultStream(np.random.default_rng(children[w]), model, w)
        for w in range(workers)
    ]
    return streams, np.random.default_rng(children[workers])
