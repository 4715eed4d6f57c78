"""The discrete-event serving simulator: queue -> batcher -> workers.

One :class:`ServingSimulator` replays an arrival trace against a
configured front end and produces the closed
:class:`~repro.serving.request.RequestRecord` set plus its
:class:`~repro.serving.slo.SloSummary`.

It runs on :class:`_EventCore`, the event core every serving simulator
shares (the fault-tolerant and fleet simulators subclass it too).  The
core owns a heap of ``(cycle, seq, kind, payload)`` events over integer
simulated cycles and two event kinds:

- **arrival**: the admission controller either rejects (token bucket /
  queue bound) or hands the request to the dynamic batcher;
- **flush**: a queued request's max-wait deadline passed.

Each simulator registers handlers for its own kinds and its own dispatch
pass; this one adds **worker-done** (a worker returns to the idle pool).
After every event the dispatcher drains: while a worker is idle and the
batcher has a dispatchable batch, the batch is priced by the
:class:`~repro.sim.batching.BatchExecutor` at the overload policy's
current rung and its completion is scheduled.  When workers are idle but
no batch is dispatchable yet, a flush event is scheduled for the earliest
max-wait deadline, so the loop never busy-waits and never misses one.

Everything is deterministic: the heap orders ties by insertion sequence,
the worker pool hands out the smallest idle id, and all times are
integers -- the same trace and configuration always produce the same
records (see ``tests/serving/test_server.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dynamic.executor import DynamicBatchExecutor
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.loadgen import TraceConfig, generate_trace
from repro.serving.overload import OverloadPolicy
from repro.serving.quality import QualityPolicy, decision_record_fields
from repro.serving.request import COMPLETED, REJECTED, Request, RequestRecord
from repro.serving.slo import SloSummary, summarize
from repro.sim.batching import BatchExecutor, WorkerPool
from repro.sim.config import DuetConfig
from repro.validation import check_range

__all__ = ["ServerConfig", "ServingResult", "ServingSimulator", "simulate_serving"]

#: Event kinds every simulator shares; subclasses number theirs from 2.
_ARRIVAL, _FLUSH = 0, 1
_DONE = 2


def _cycles(us: float, clock_hz: float) -> int:
    """Simulated microseconds -> integer cycles."""
    return int(round(us * 1e-6 * clock_hz))


@dataclass(frozen=True)
class ServerConfig:
    """Full configuration of the serving front end.

    Attributes:
        workers: simulated accelerator instances behind the queue.
        batch: dynamic-batching policy.
        admission: admission-control knobs.
        overload: occupancy -> degradation-rung policy.
        quality: occupancy -> early-exit-threshold policy (the depth
            axis; disabled by default, which serves every request at
            full static depth).
        hardware: the per-worker accelerator configuration (also fixes
            the simulated clock).
    """

    workers: int = 2
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    quality: QualityPolicy = field(default_factory=QualityPolicy.disabled)
    hardware: DuetConfig = field(default_factory=DuetConfig)

    def __post_init__(self):
        check_range(self, "workers", ge=1)


@dataclass
class ServingResult:
    """Everything one serving run produced.

    Attributes:
        config: the server configuration.
        records: one closed record per request, in arrival (rid) order.
        summary: the run's SLO account.
        max_queue_depth: deepest the pending queue ever got (always
            within ``config.admission.max_queue_depth``).
        simulated_cycles: cycle of the last event (makespan end).
    """

    config: ServerConfig
    records: list[RequestRecord]
    summary: SloSummary
    max_queue_depth: int
    simulated_cycles: int


class _EventCore:
    """Event heap, admission, flushes, pricing and record closure.

    A subclass calls :meth:`_start` at the top of each run, pushes its
    initial events, passes :meth:`_run_events` its own event kinds'
    handlers, and defines ``_dispatch(now)``, the pass run after every
    event.  Without an injected ``executor`` one is built from
    ``config.hardware`` (exit-aware when the quality policy is enabled).
    """

    #: (static, exit-aware) executor classes; only the exit-aware one is
    #: ever handed a quality threshold.
    _executors = (BatchExecutor, DynamicBatchExecutor)

    def __init__(self, config, executor, **executor_kwargs):
        self.config = config
        if executor is None:
            static, exit_aware = self._executors
            executor_cls = exit_aware if config.quality.enabled else static
            executor = executor_cls(config=config.hardware, **executor_kwargs)
        self.executor = executor

    def _start(self, batcher: DynamicBatcher | None = None) -> None:
        """Reset the per-run state shared by every simulator."""
        cfg = self.config
        clock_hz = cfg.hardware.clock_hz
        if batcher is None:
            batcher = DynamicBatcher(cfg.batch, clock_hz=clock_hz)
        self._batcher = batcher
        self._admission = AdmissionController(cfg.admission, clock_hz=clock_hz)
        self._events: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._records: dict[int, RequestRecord] = {}
        self._duplicates = 0
        self._max_depth = 0
        self._last_cycle = 0

    def _push(self, cycle: int, kind: int, payload: object = None) -> None:
        heapq.heappush(self._events, (cycle, self._seq, kind, payload))
        self._seq += 1

    def _run_events(self, handlers: dict) -> None:
        """Pop events in (cycle, seq) order until none is left.

        Each event runs the handler registered for its kind (arrivals
        go to :meth:`_on_arrival`; flush events and unregistered kinds
        have none), then the subclass's dispatch pass.
        """
        handlers = {_ARRIVAL: self._on_arrival, **handlers}
        events = self._events
        dispatch = self._dispatch
        last_cycle = self._last_cycle
        while events:
            now, _, kind, payload = heapq.heappop(events)
            if now > last_cycle:
                last_cycle = now
            handler = handlers.get(kind)
            if handler is not None:
                handler(now, payload)
            dispatch(now)
        self._last_cycle = last_cycle

    def _on_arrival(self, now: int, request: Request) -> bool:
        """Admit ``request`` to the batcher or close it rejected."""
        reason = self._admission.admit(now, self._batcher.depth)
        if reason is not None:
            self._close(RequestRecord(request, REJECTED, reject_reason=reason))
            return False
        self._enqueue(request)
        return True

    def _enqueue(self, request: Request, front: bool = False) -> None:
        """Queue ``request`` (at its model queue's head when ``front``)."""
        if front:
            self._batcher.push_front(request)
        else:
            self._batcher.push(request)
        self._max_depth = max(self._max_depth, self._batcher.depth)

    def _arm_flush(self, now: int) -> None:
        """Wake the dispatcher at the earliest max-wait deadline."""
        flush = self._batcher.next_flush_cycle()
        if flush is not None:
            self._push(max(flush, now + 1), _FLUSH)

    def _price(self, batch: list[Request], pressure: int, sheddable: bool = True):
        """``(stage, result)`` of serving ``batch`` at queue ``pressure``.

        The rung -- and, for a sheddable batch on an exit-aware
        executor, the early-exit threshold -- is decided at the pressure
        the dispatcher saw, i.e. the depth including the batch it is
        about to serve.
        """
        cfg = self.config
        bound = cfg.admission.max_queue_depth
        stage = cfg.overload.stage_for(pressure, bound)
        seeds = [r.workload_seed for r in batch]
        if (
            sheddable
            and cfg.quality.enabled
            and isinstance(self.executor, self._executors[1])
        ):
            threshold = cfg.quality.threshold_for(pressure, bound)
            result = self.executor.execute(
                batch[0].model, seeds, stage=stage, threshold=threshold
            )
        else:
            result = self.executor.execute(batch[0].model, seeds, stage=stage)
        return stage, result

    def _close(self, record: RequestRecord) -> None:
        """File a terminal record; a second one for its rid is a
        duplicate, counted and dropped (the first record stands)."""
        rid = record.request.rid
        if rid in self._records:
            self._duplicates += 1
        else:
            self._records[rid] = record

    def _close_batch(self, batch, stage, result, dispatch: int, done: int) -> None:
        """Close every request of a batch served from ``dispatch`` to
        ``done`` (with its early-exit decision, when priced with one)."""
        decisions = getattr(result, "decisions", None)
        for index, request in enumerate(batch):
            self._close(
                RequestRecord(
                    request,
                    COMPLETED,
                    stage=stage,
                    batch_size=len(batch),
                    dispatch_cycle=dispatch,
                    completion_cycle=done,
                    **decision_record_fields(
                        request.model,
                        decisions[index] if decisions else None,
                    ),
                )
            )


class ServingSimulator(_EventCore):
    """Replays arrival traces against one serving configuration.

    Args:
        config: server configuration (defaults to ``ServerConfig()``).
        executor: batch executor; built from ``config.hardware`` when not
            supplied (exit-aware when the quality policy is enabled).
            Injecting a stub executor keeps policy-level tests free of
            accelerator simulation.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        executor: BatchExecutor | None = None,
    ):
        super().__init__(config if config is not None else ServerConfig(), executor)

    def run(self, trace: list[Request]) -> ServingResult:
        """Simulate one trace to completion."""
        cfg = self.config
        self._start()
        self._pool = WorkerPool(cfg.workers)
        for request in trace:
            self._push(request.arrival_cycle, _ARRIVAL, request)
        self._run_events({_DONE: self._on_done})

        ordered = [self._records[request.rid] for request in trace]
        return ServingResult(
            config=cfg,
            records=ordered,
            summary=summarize(ordered, clock_hz=cfg.hardware.clock_hz),
            max_queue_depth=self._max_depth,
            simulated_cycles=self._last_cycle,
        )

    def _on_done(self, now: int, worker: int) -> None:
        self._pool.release(worker)

    def _dispatch(self, now: int) -> None:
        batcher, pool = self._batcher, self._pool
        while pool.idle:
            batch = batcher.pop_batch(now)
            if batch is None:
                break
            worker = pool.acquire()
            stage, result = self._price(batch, batcher.depth + len(batch))
            done = now + result.service_cycles
            self._close_batch(batch, stage, result, now, done)
            self._push(done, _DONE, worker)
        if pool.idle and batcher.depth:
            self._arm_flush(now)


def simulate_serving(
    trace: TraceConfig | list[Request],
    config: ServerConfig | None = None,
    executor: BatchExecutor | None = None,
) -> ServingResult:
    """Convenience wrapper: generate (if needed) and replay one trace."""
    if isinstance(trace, TraceConfig):
        trace = generate_trace(trace)
    return ServingSimulator(config=config, executor=executor).run(trace)
