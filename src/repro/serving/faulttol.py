"""Fault-tolerant serving: retries, hedging, breakers, health-checked pool.

The plain :class:`~repro.serving.server.ServingSimulator` assumes immortal
workers.  :class:`FaultTolerantSimulator` runs on the same event core
(``repro.serving.server._EventCore``: arrival admission, max-wait
flushes, pricing, record closure) against a fleet whose workers
**crash**, **hang**, and **straggle** (fates drawn per dispatch from
:mod:`repro.reliability.workerfaults` streams).  It registers the event
kinds of the client- and server-side machinery production serving needs
to survive that -- done, timeout, hedge, retry, deadline, beat, respawn,
crash and wake:

- **timeouts + bounded retries** with seeded exponential backoff jitter
  (:class:`RetryPolicy`): an attempt that outlives its timeout is
  abandoned and the request re-queued, up to ``max_attempts`` dispatches;
- **hedged requests** (:class:`HedgePolicy`): an attempt that outlives
  the observed p99 attempt latency is raced against a second dispatch on
  a different worker, first completion wins, the loser's result is
  suppressed (never delivered twice);
- **per-worker circuit breakers** (:class:`BreakerPolicy`): consecutive
  timeouts open a worker's breaker (closed -> open -> half-open with a
  single probe), steering traffic away from a "lemon" machine;
- **heartbeat health checks** (:class:`HealthPolicy`): dead and hung
  workers miss heartbeats, get evicted after ``miss_threshold`` misses,
  and respawn after a warm (hang) or cold (crash) restart cost;
- **graceful drain**: an evicted worker's in-flight requests are handed
  back to the *front* of their model queue with the burned attempt
  refunded (the failure was the server's, not the client's); a healthy
  worker whose client timed out simply finishes -- its late completion
  is still delivered if the request has no other result yet.

Two conservation properties are structural, counted, and asserted by the
``duet-chaos/1`` campaign (:mod:`repro.bench.chaos`):

1. **no request is lost** -- every admitted request ends in exactly one
   terminal record (completed, or failed with a terminal reason; a
   per-request deadline backstops even the policy-free configuration);
2. **no request completes twice** -- a request's first completion wins
   and every later one is suppressed (counted as ``redundant``, never
   delivered), so the client-visible duplicate count is zero.

Interaction with admission (``overload.py``): retries and hedges are
*internal* re-dispatches -- they never pass through the admission
controller, so they consume no token-bucket tokens and can never starve
fresh arrivals of admission capacity.  The queue-depth bound therefore
applies to arrivals only; re-queued retries may transiently push the
pending depth past it (recorded in ``max_queue_depth_seen``), and the
overload ladder responds to that pressure exactly as it does to arrivals.

With zero fault rates, the ``none`` policy and a deadline past the
makespan this simulator reproduces the plain
:class:`~repro.serving.server.ServingSimulator` record for record, on
every field but ``attempts`` (property-tested in
``tests/serving/test_parity.py``): same batches, same stages, same cycle
times.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.reliability.workerfaults import (
    FATE_CRASH,
    FATE_HANG,
    FATE_STRAGGLE,
    WorkerFaultModel,
    spawn_worker_streams,
)
from repro.serving.loadgen import TraceConfig, generate_trace
from repro.serving.overload import SERVING_LADDER
from repro.serving.quality import decision_record_fields
from repro.serving.request import (
    COMPLETED,
    FAIL_ATTEMPTS_EXHAUSTED,
    FAIL_DEADLINE,
    FAILED,
    REJECTED,
    Request,
    RequestRecord,
)
from repro.serving.server import _ARRIVAL, ServerConfig, _EventCore, _cycles
from repro.serving.slo import (
    _distribution,
    _duration_cycles,
    _exit_means,
    _reason_counts,
    _stage_counts,
    percentile,
)
from repro.sim.batching import BatchExecutor
from repro.validation import check_range

__all__ = [
    "POLICY_LADDER",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerPolicy",
    "HealthPolicy",
    "FaultTolerancePolicy",
    "policy_named",
    "ChaosSummary",
    "ChaosResult",
    "FaultTolerantSimulator",
    "simulate_chaos",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-attempt timeout + bounded retries with seeded backoff jitter.

    Attributes:
        max_attempts: dispatches a request may consume (1 = no retries).
            Hedges and server-side hand-backs do not count against it.
        timeout_us: per-attempt timeout; an attempt older than this is
            abandoned and the request re-queued (simulated us).
        backoff_base_us: backoff before retry ``k`` (1-based) is
            ``backoff_base_us * backoff_multiplier**(k-1)``, stretched by
            jitter.
        backoff_multiplier: exponential backoff growth factor.
        jitter_fraction: each backoff is multiplied by ``1 + f*u`` with
            ``u`` uniform in ``[0, 1)`` from the run's seeded policy
            stream -- decorrelates retry herds without wall-clock
            randomness.
    """

    max_attempts: int = 3
    timeout_us: float = 150_000.0
    backoff_base_us: float = 1_000.0
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self):
        check_range(self, "max_attempts", ge=1)
        check_range(self, "timeout_us", gt=0)
        check_range(self, "backoff_base_us", ge=0)
        check_range(self, "backoff_multiplier", ge=1)
        check_range(self, "jitter_fraction", ge=0, le=1)


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: race slow attempts against a second worker.

    Attributes:
        initial_delay_us: hedge delay before enough attempt latencies
            have been observed.
        latency_percentile: once warmed up, hedge after this percentile
            of observed attempt latencies (the classic p99 rule).
        min_samples: observed attempt completions required before the
            percentile replaces ``initial_delay_us``.
    """

    initial_delay_us: float = 50_000.0
    latency_percentile: float = 99.0
    min_samples: int = 20

    def __post_init__(self):
        check_range(self, "initial_delay_us", gt=0)
        check_range(self, "latency_percentile", gt=0, le=100)
        check_range(self, "min_samples", ge=1)


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-worker circuit breaker: closed -> open -> half-open.

    Attributes:
        failure_threshold: consecutive attempt timeouts that open the
            breaker.
        reset_timeout_us: how long an open breaker blocks dispatches
            before transitioning to half-open (one probe allowed; a
            successful probe closes, a failed one re-opens).
    """

    failure_threshold: int = 3
    reset_timeout_us: float = 500_000.0

    def __post_init__(self):
        check_range(self, "failure_threshold", ge=1)
        check_range(self, "reset_timeout_us", gt=0)


@dataclass(frozen=True)
class HealthPolicy:
    """Heartbeat health checks with evict + warm/cold respawn.

    Attributes:
        heartbeat_us: heartbeat period; dead and hung workers miss beats.
        miss_threshold: consecutive misses before eviction.
        warm_restart_us: respawn cost of an evicted *hung* worker (the
            process is alive; it gets a soft restart).
        cold_restart_us: respawn cost of an evicted *crashed* worker
            (full process start + model/weight reload).
    """

    heartbeat_us: float = 20_000.0
    miss_threshold: int = 3
    warm_restart_us: float = 50_000.0
    cold_restart_us: float = 250_000.0

    def __post_init__(self):
        check_range(self, "heartbeat_us", gt=0)
        check_range(self, "miss_threshold", ge=1)
        check_range(self, "warm_restart_us", "cold_restart_us", ge=0)


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """One named bundle of the four mechanisms (any subset enabled).

    Attributes:
        name: policy name as it appears in the chaos campaign.
        retry / hedge / breaker / health: the enabled mechanisms
            (``None`` disables each).
        deadline_us: hard per-request deadline from admission; a request
            with no completion by then terminally fails
            (:data:`~repro.serving.request.FAIL_DEADLINE`).  This is the
            conservation backstop -- it closes every admitted request
            even under the mechanism-free ``none`` policy.
    """

    name: str
    retry: RetryPolicy | None = None
    hedge: HedgePolicy | None = None
    breaker: BreakerPolicy | None = None
    health: HealthPolicy | None = None
    deadline_us: float = 2_000_000.0

    def __post_init__(self):
        check_range(self, "deadline_us", gt=0)
        if self.breaker is not None and self.retry is None:
            raise ValueError(
                "FaultTolerancePolicy.breaker requires retry: breaker "
                "failures are attempt timeouts"
            )
        if self.retry is not None and self.deadline_us <= self.retry.timeout_us:
            raise ValueError(
                "FaultTolerancePolicy.deadline_us must exceed the attempt "
                f"timeout, got deadline={self.deadline_us} <= "
                f"timeout={self.retry.timeout_us}"
            )


#: The policy sweep of the chaos campaign, weakest to strongest.
POLICY_LADDER: tuple[str, ...] = (
    "none",
    "retry",
    "retry-hedge",
    "retry-hedge-breaker",
)


#: The template :func:`policy_named` cuts its rungs from by default:
#: every mechanism at its stock knobs.
_STOCK_FULL_STACK = FaultTolerancePolicy(
    name=POLICY_LADDER[-1],
    retry=RetryPolicy(),
    hedge=HedgePolicy(),
    breaker=BreakerPolicy(),
    health=HealthPolicy(),
)


def policy_named(
    name: str, full_stack: FaultTolerancePolicy = _STOCK_FULL_STACK
) -> FaultTolerancePolicy:
    """One :data:`POLICY_LADDER` rung, cut from a full-stack template.

    ``none`` is mechanism-free (deadline backstop only); each later rung
    adds one of ``full_stack``'s mechanisms on top of the previous
    (health checks ride with every rung that has retries -- they are
    server-side and policy comparisons above ``none`` assume a
    self-healing pool).  Every rung keeps ``full_stack.deadline_us``.
    """
    if name not in POLICY_LADDER:
        raise ValueError(
            f"unknown fault-tolerance policy {name!r}; choose from "
            f"{POLICY_LADDER}"
        )
    recovers = name != "none"
    return FaultTolerancePolicy(
        name=name,
        retry=full_stack.retry if recovers else None,
        hedge=full_stack.hedge if "hedge" in name else None,
        breaker=full_stack.breaker if "breaker" in name else None,
        health=full_stack.health if recovers else None,
        deadline_us=full_stack.deadline_us,
    )


# -- internal event-loop state -------------------------------------------

_DONE, _TIMEOUT, _HEDGE, _RETRY, _DEADLINE = 2, 3, 4, 5, 6
_BEAT, _RESPAWN, _CRASH, _WAKE = 7, 8, 9, 10  # _WAKE only triggers dispatch

_IDLE, _BUSY, _HUNG, _DEAD, _RESTARTING = "idle", "busy", "hung", "dead", "restarting"

_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"

#: Event counters of one run, reported by name in :class:`ChaosSummary`
#: (the three worker fates under its ``faults``).
_COUNTERS = (
    "dispatches", "retries", "hedges", "hedge_wins", "hedges_skipped",
    "timeouts", "late_completions", "redundant", "crashes", "hangs",
    "straggles", "evictions", "respawns_warm", "respawns_cold",
    "handed_back", "breaker_opens", "breaker_probes",
)


class _Breaker:
    """Per-worker-slot breaker state (client-side view of the endpoint)."""

    __slots__ = ("state", "failures", "open_until", "probe_in_flight")

    def __init__(self):
        self.state = _CLOSED
        self.failures = 0
        self.open_until = 0
        self.probe_in_flight = False


class _Worker:
    """One worker slot: lifecycle state + the attempt it is serving."""

    __slots__ = ("wid", "state", "generation", "attempt", "misses", "breaker")

    def __init__(self, wid: int):
        self.wid = wid
        self.state = _IDLE
        self.generation = 0
        self.attempt: _Attempt | None = None
        self.misses = 0
        self.breaker = _Breaker()


class _Attempt:
    """One dispatched batch: requests, worker, and liveness."""

    __slots__ = (
        "requests",
        "worker",
        "generation",
        "dispatch_cycle",
        "stage",
        "is_hedge",
        "decisions",
        "live",
        "abandoned",
    )

    def __init__(
        self, requests, worker, generation, dispatch_cycle, stage, is_hedge,
        decisions,
    ):
        self.requests = requests
        self.worker = worker
        self.generation = generation
        self.dispatch_cycle = dispatch_cycle
        self.stage = stage
        self.is_hedge = is_hedge
        # rid -> ExitDecision of the quality axis (empty when static)
        self.decisions = decisions
        self.live = True
        self.abandoned = False


class _Tracker:
    """Per-admitted-request ledger: budget, outstanding attempts, closure."""

    __slots__ = (
        "request",
        "tries",
        "attempts",
        "outstanding",
        "done",
        "retry_pending",
        "hedged",
        "handed_back",
    )

    def __init__(self, request: Request):
        self.request = request
        self.tries = 0  # dispatches charged against the retry budget
        self.attempts = 0  # all dispatches, hedges included
        self.outstanding = 0  # live attempts currently carrying it
        self.done = False
        self.retry_pending = False
        self.hedged = False
        self.handed_back = 0  # evicted dispatches returned to the queue


@dataclass(frozen=True)
class ChaosSummary:
    """The account of one fault-tolerant serving run.

    ``goodput_rps`` is *completed* requests per simulated second --
    rejected and failed requests earn nothing, and the duration window
    runs from the first arrival to the last *terminal* event
    (completion or failure verdict), so a run that strands its clients
    until their deadlines pays for that wall time.  ``duplicates`` counts
    client-visible double completions and is structurally zero (the
    first completion wins; later ones are counted in ``redundant`` and
    suppressed).  ``lost`` counts admitted requests with no terminal
    record and is likewise structurally zero (the per-request deadline
    closes every straggler).  ``faults`` counts the injected worker
    fates: ``crashes``, ``hangs`` and ``straggles``.
    """

    offered: int
    admitted: int
    completed: int
    rejected: int
    failed: int
    rejects_by_reason: dict
    fails_by_reason: dict
    duration_ms: float
    goodput_rps: float
    success_rate: float
    latency_ms: dict
    dispatches: int
    retries: int
    hedges: int
    hedge_wins: int
    hedges_skipped: int
    timeouts: int
    late_completions: int
    redundant: int
    faults: dict
    evictions: int
    respawns_warm: int
    respawns_cold: int
    handed_back: int
    breaker_opens: int
    breaker_probes: int
    duplicates: int
    lost: int
    stage_counts: dict
    early_exits: int = 0
    mean_exit_depth: float = 1.0
    mean_quality_drop: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready form: every field, in declaration order."""
        return asdict(self)


@dataclass
class ChaosResult:
    """Everything one fault-tolerant serving run produced."""

    config: ServerConfig
    faults: WorkerFaultModel
    policy: FaultTolerancePolicy
    seed: int
    records: list[RequestRecord]
    summary: ChaosSummary
    max_queue_depth_seen: int
    simulated_cycles: int


class FaultTolerantSimulator(_EventCore):
    """Replays arrival traces against a faulty fleet under one policy.

    Args:
        config: the serving front end (same surface as the plain
            simulator).
        faults: the fleet's fault model.
        policy: the fault-tolerance mechanisms to run with.
        seed: root seed of the run's fault + policy-jitter streams
            (:func:`repro.reliability.workerfaults.spawn_worker_streams`).
        executor: optional injected batch executor (stub in tests).

    One instance may be reused; every :meth:`run` resets all state.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        faults: WorkerFaultModel | None = None,
        policy: FaultTolerancePolicy | None = None,
        seed: int = 0,
        executor: BatchExecutor | None = None,
    ):
        super().__init__(config if config is not None else ServerConfig(), executor)
        self.faults = faults if faults is not None else WorkerFaultModel()
        self.policy = policy if policy is not None else policy_named("none")
        self.seed = seed

    # -- lifecycle ---------------------------------------------------------

    def _reset(self, trace: list[Request]) -> None:
        self._start()
        cfg = self.config
        clock_hz = cfg.hardware.clock_hz
        policy = self.policy
        self._streams, self._jitter_rng = spawn_worker_streams(
            self.seed, cfg.workers, self.faults
        )
        self._workers = [_Worker(w) for w in range(cfg.workers)]
        self._trackers: dict[int, _Tracker] = {}
        self._open_requests = 0
        self._arrivals_remaining = len(trace)
        self._attempt_latencies: list[int] = []
        self._deadline_cycles = _cycles(policy.deadline_us, clock_hz)
        self._timeout_cycles = (
            _cycles(policy.retry.timeout_us, clock_hz) if policy.retry else 0
        )
        self._heartbeat_cycles = (
            _cycles(policy.health.heartbeat_us, clock_hz) if policy.health else 0
        )
        self._reset_cycles = (
            _cycles(policy.breaker.reset_timeout_us, clock_hz) if policy.breaker else 0
        )
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def run(self, trace: list[Request]) -> ChaosResult:
        """Simulate one trace to termination (every request closed)."""
        self._reset(trace)
        for request in trace:
            self._push(request.arrival_cycle, _ARRIVAL, request)
        if self._heartbeat_cycles:
            self._push(self._heartbeat_cycles, _BEAT)
        self._run_events(
            {
                _DONE: self._on_done,
                _TIMEOUT: self._on_timeout,
                _HEDGE: self._on_hedge,
                _RETRY: self._on_retry,
                _DEADLINE: self._on_deadline,
                _BEAT: self._on_beat,
                _RESPAWN: self._on_respawn,
                _CRASH: self._on_crash,
            }
        )
        return self._finish(trace)

    # -- event handlers ----------------------------------------------------

    def _on_arrival(self, now: int, request: Request) -> None:
        self._arrivals_remaining -= 1
        if super()._on_arrival(now, request):
            self._trackers[request.rid] = _Tracker(request)
            self._open_requests += 1
            self._push(now + self._deadline_cycles, _DEADLINE, request.rid)

    def _on_done(self, now: int, attempt: _Attempt) -> None:
        worker = self._workers[attempt.worker]
        if worker.generation == attempt.generation and worker.attempt is attempt:
            worker.state = _IDLE
            worker.attempt = None
            # A completion the client already timed out on is not a
            # breaker success: the breaker tracks *client-perceived*
            # outcomes, and this one was perceived as a failure.  The
            # worker is still released -- it is alive, just slow.
            if not attempt.abandoned:
                self._breaker_success(worker)
        was_live = attempt.live
        attempt.live = False
        if was_live:
            self._attempt_latencies.append(now - attempt.dispatch_cycle)
        for request in attempt.requests:
            tracker = self._trackers[request.rid]
            if was_live:
                tracker.outstanding -= 1
            if tracker.done:
                record = self._records[request.rid]
                if record.outcome == COMPLETED:
                    self._counts["redundant"] += 1
                continue
            if attempt.abandoned:
                self._counts["late_completions"] += 1
            self._complete(now, tracker, attempt)

    def _pending(self, attempt: _Attempt) -> list[Request]:
        """The attempt's requests that still await a terminal record."""
        return [r for r in attempt.requests if not self._trackers[r.rid].done]

    def _on_timeout(self, now: int, attempt: _Attempt) -> None:
        if not attempt.live or not self._pending(attempt):
            return
        attempt.live = False
        attempt.abandoned = True
        self._counts["timeouts"] += 1
        self._breaker_failure(now, self._workers[attempt.worker])
        for request in attempt.requests:
            tracker = self._trackers[request.rid]
            tracker.outstanding -= 1
            if tracker.done or tracker.outstanding > 0 or tracker.retry_pending:
                continue
            if self.policy.retry and tracker.tries < self.policy.retry.max_attempts:
                tracker.retry_pending = True
                self._push(now + self._backoff(tracker.tries), _RETRY, request.rid)
            else:
                self._fail(now, tracker, FAIL_ATTEMPTS_EXHAUSTED)

    def _on_hedge(self, now: int, attempt: _Attempt) -> None:
        if self.policy.hedge is None or not attempt.live:
            return
        pending = self._pending(attempt)
        if not pending:
            return
        wid = self._select_worker(now, exclude=attempt.worker)
        if wid is None:
            self._counts["hedges_skipped"] += 1
            return
        self._counts["hedges"] += 1
        self._start_attempt(now, wid, pending, is_hedge=True)

    def _on_retry(self, now: int, rid: int) -> None:
        tracker = self._trackers[rid]
        tracker.retry_pending = False
        if tracker.done:
            return
        self._counts["retries"] += 1
        self._enqueue(tracker.request)

    def _on_deadline(self, now: int, rid: int) -> None:
        tracker = self._trackers[rid]
        if not tracker.done:
            self._fail(now, tracker, FAIL_DEADLINE)

    def _on_beat(self, now: int, _payload: object) -> None:
        health = self.policy.health
        for worker in self._workers:
            if worker.state in (_DEAD, _HUNG):
                worker.misses += 1
                if worker.misses >= health.miss_threshold:
                    self._evict(now, worker)
            else:
                worker.misses = 0
        if self._open_requests > 0 or self._arrivals_remaining > 0:
            self._push(now + self._heartbeat_cycles, _BEAT)

    def _on_respawn(self, now: int, payload: tuple[int, int]) -> None:
        wid, generation = payload
        worker = self._workers[wid]
        if worker.generation != generation or worker.state != _RESTARTING:
            return
        worker.state = _IDLE
        worker.attempt = None
        worker.misses = 0

    def _on_crash(self, now: int, payload: tuple[int, int]) -> None:
        wid, generation = payload
        worker = self._workers[wid]
        if worker.generation != generation or worker.state != _BUSY:
            return
        worker.state = _DEAD

    # -- dispatch ----------------------------------------------------------

    def _breaker_allows(self, now: int, worker: _Worker) -> bool:
        if self.policy.breaker is None:
            return True
        breaker = worker.breaker
        if breaker.state == _OPEN and now >= breaker.open_until:
            breaker.state = _HALF_OPEN
            breaker.probe_in_flight = False
        if breaker.state == _CLOSED:
            return True
        if breaker.state == _HALF_OPEN:
            return not breaker.probe_in_flight
        return False

    def _select_worker(self, now: int, exclude: int | None = None) -> int | None:
        for worker in self._workers:  # ascending wid: smallest idle wins
            if worker.state != _IDLE or worker.wid == exclude:
                continue
            if self._breaker_allows(now, worker):
                return worker.wid
        return None

    def _backoff(self, tries: int) -> int:
        retry = self.policy.retry
        base = retry.backoff_base_us * retry.backoff_multiplier ** max(tries - 1, 0)
        jitter = 1.0 + retry.jitter_fraction * float(self._jitter_rng.random())
        return max(1, _cycles(base * jitter, self.config.hardware.clock_hz))

    def _start_attempt(
        self, now: int, wid: int, batch: list[Request], is_hedge: bool
    ) -> None:
        worker = self._workers[wid]
        stage, result = self._price(batch, self._batcher.depth + len(batch))
        exits = getattr(result, "decisions", None) or ()
        decisions = {
            request.rid: decision
            for request, decision in zip(batch, exits)
            if decision is not None
        }
        fate = self._streams[wid].draw_fate()
        service = result.service_cycles
        if fate.kind == FATE_STRAGGLE:
            service = int(service * self.faults.straggle_multiplier)
        attempt = _Attempt(
            requests=batch,
            worker=wid,
            generation=worker.generation,
            dispatch_cycle=now,
            stage=stage,
            is_hedge=is_hedge,
            decisions=decisions,
        )
        self._counts["dispatches"] += 1
        worker.attempt = attempt
        breaker = worker.breaker
        if self.policy.breaker is not None and breaker.state == _HALF_OPEN:
            breaker.probe_in_flight = True
            self._counts["breaker_probes"] += 1
        for request in batch:
            tracker = self._trackers[request.rid]
            tracker.attempts += 1
            tracker.outstanding += 1
            if is_hedge:
                tracker.hedged = True
            else:
                tracker.tries += 1
        if fate.kind == FATE_CRASH:
            self._counts["crashes"] += 1
            worker.state = _BUSY
            dead_at = now + max(1, int(fate.crash_fraction * service))
            self._push(dead_at, _CRASH, (wid, worker.generation))
        elif fate.kind == FATE_HANG:
            self._counts["hangs"] += 1
            worker.state = _HUNG
        else:
            if fate.kind == FATE_STRAGGLE:
                self._counts["straggles"] += 1
            worker.state = _BUSY
            self._push(now + service, _DONE, attempt)
        if self.policy.retry is not None:
            self._push(now + self._timeout_cycles, _TIMEOUT, attempt)
        if self.policy.hedge is not None and not is_hedge:
            self._push(now + self._hedge_delay(), _HEDGE, attempt)

    def _hedge_delay(self) -> int:
        hedge = self.policy.hedge
        latencies = self._attempt_latencies
        if len(latencies) >= hedge.min_samples:
            return max(1, int(percentile(sorted(latencies), hedge.latency_percentile)))
        return max(1, _cycles(hedge.initial_delay_us, self.config.hardware.clock_hz))

    def _dispatch(self, now: int) -> None:
        worker_free = False
        while True:
            wid = self._select_worker(now)
            if wid is None:
                break
            batch = None
            while True:
                popped = self._batcher.pop_batch(now)
                if popped is None:
                    break
                live = [
                    r for r in popped if not self._trackers[r.rid].done
                ]
                if live:
                    batch = live
                    break
            if batch is None:
                worker_free = True
                break
            self._start_attempt(now, wid, batch, is_hedge=False)
        # arm on "a selectable worker found no batch", not on idle
        # workers: an open breaker can leave an idle worker unselectable
        if worker_free and self._batcher.depth:
            self._arm_flush(now)

    # -- recovery machinery ------------------------------------------------

    def _breaker_success(self, worker: _Worker) -> None:
        if self.policy.breaker is None:
            return
        breaker = worker.breaker
        breaker.failures = 0
        breaker.probe_in_flight = False
        breaker.state = _CLOSED

    def _breaker_failure(self, now: int, worker: _Worker) -> None:
        if self.policy.breaker is None:
            return
        breaker = worker.breaker
        breaker.failures += 1
        if breaker.state == _HALF_OPEN or (
            breaker.state == _CLOSED
            and breaker.failures >= self.policy.breaker.failure_threshold
        ):
            breaker.state = _OPEN
            breaker.open_until = now + self._reset_cycles
            breaker.probe_in_flight = False
            self._counts["breaker_opens"] += 1
            self._push(breaker.open_until, _WAKE)

    def _evict(self, now: int, worker: _Worker) -> None:
        """Evict a dead/hung worker: hand its work back, schedule respawn."""
        health = self.policy.health
        cold = worker.state == _DEAD
        attempt = worker.attempt
        if attempt is not None and attempt.live:
            attempt.live = False
            for request in attempt.requests:
                tracker = self._trackers[request.rid]
                tracker.outstanding -= 1
                if tracker.done:
                    continue
                # graceful drain: hand the request back to the front of
                # its queue and refund the charged attempt -- the loss
                # was the server's fault, not the client's budget
                if not attempt.is_hedge:
                    tracker.tries = max(tracker.tries - 1, 0)
                tracker.handed_back += 1
                self._counts["handed_back"] += 1
                self._enqueue(request, front=True)
        worker.attempt = None
        worker.state = _RESTARTING
        worker.generation += 1
        worker.misses = 0
        self._counts["evictions"] += 1
        self._counts["respawns_cold" if cold else "respawns_warm"] += 1
        restart = _cycles(
            health.cold_restart_us if cold else health.warm_restart_us,
            self.config.hardware.clock_hz,
        )
        self._push(now + max(1, restart), _RESPAWN, (worker.wid, worker.generation))

    # -- closure -----------------------------------------------------------

    def _complete(self, now: int, tracker: _Tracker, attempt: _Attempt) -> None:
        tracker.done = True
        self._open_requests -= 1
        if attempt.is_hedge:
            self._counts["hedge_wins"] += 1
        self._close(
            RequestRecord(
                tracker.request,
                COMPLETED,
                stage=attempt.stage,
                batch_size=len(attempt.requests),
                dispatch_cycle=attempt.dispatch_cycle,
                completion_cycle=now,
                attempts=tracker.attempts,
                hedged=tracker.hedged,
                handed_back=tracker.handed_back,
                **decision_record_fields(
                    tracker.request.model,
                    attempt.decisions.get(tracker.request.rid),
                ),
            )
        )

    def _fail(self, now: int, tracker: _Tracker, reason: str) -> None:
        tracker.done = True
        self._open_requests -= 1
        self._close(
            RequestRecord(
                tracker.request,
                FAILED,
                reject_reason=reason,
                completion_cycle=now,  # when the client stopped waiting
                attempts=tracker.attempts,
                hedged=tracker.hedged,
                handed_back=tracker.handed_back,
            )
        )

    def _finish(self, trace: list[Request]) -> ChaosResult:
        lost = 0
        for rid, tracker in self._trackers.items():
            if not tracker.done:
                # structurally unreachable (the deadline closes every
                # request); counted rather than asserted so the campaign
                # invariant, not a crash, reports any future regression
                lost += 1
                self._fail(self._last_cycle, tracker, FAIL_DEADLINE)
        records = [self._records[request.rid] for request in trace]
        return ChaosResult(
            config=self.config,
            faults=self.faults,
            policy=self.policy,
            seed=self.seed,
            records=records,
            summary=self._summarize(records, lost),
            max_queue_depth_seen=self._max_depth,
            simulated_cycles=self._last_cycle,
        )

    def _summarize(self, records: list[RequestRecord], lost: int) -> ChaosSummary:
        clock_hz = self.config.hardware.clock_hz
        to_ms = lambda cycles: cycles / clock_hz * 1e3  # noqa: E731
        completed = [r for r in records if r.completed]
        rejected = [r for r in records if r.outcome == REJECTED]
        failed = [r for r in records if r.failed]
        duration_cycles = _duration_cycles(records)
        duration_s = duration_cycles / clock_hz
        admitted = len(completed) + len(failed)
        counts = dict(self._counts)
        faults = {fate: counts.pop(fate) for fate in ("crashes", "hangs", "straggles")}
        return ChaosSummary(
            offered=len(records),
            admitted=admitted,
            completed=len(completed),
            rejected=len(rejected),
            failed=len(failed),
            rejects_by_reason=_reason_counts(rejected),
            fails_by_reason=_reason_counts(failed),
            duration_ms=to_ms(duration_cycles),
            goodput_rps=len(completed) / duration_s if duration_s > 0 else 0.0,
            success_rate=len(completed) / admitted if admitted else 0.0,
            latency_ms=_distribution([to_ms(r.latency_cycles) for r in completed]),
            duplicates=self._duplicates,
            lost=lost,
            stage_counts=_stage_counts(completed, SERVING_LADDER),
            faults=faults,
            **_exit_means(completed),
            **counts,
        )


def simulate_chaos(
    trace: TraceConfig | list[Request],
    config: ServerConfig | None = None,
    faults: WorkerFaultModel | None = None,
    policy: FaultTolerancePolicy | None = None,
    seed: int = 0,
    executor: BatchExecutor | None = None,
) -> ChaosResult:
    """Convenience wrapper: generate (if needed) and replay one trace."""
    if isinstance(trace, TraceConfig):
        trace = generate_trace(trace)
    simulator = FaultTolerantSimulator(
        config=config, faults=faults, policy=policy, seed=seed, executor=executor
    )
    return simulator.run(trace)
