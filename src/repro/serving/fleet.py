"""Fleet-scale serving: a router over N sharded servers with SLO-class
priority scheduling and occupancy-driven autoscaling.

One :class:`FleetSimulator` models the production tier above the
single-queue simulator (:mod:`repro.serving.server`):

- **Servers are shard groups.**  Every server is one replica of the
  model placement: a group of simulated chips joined by a
  :class:`~repro.sim.sharding.ShardPlan` per model (pipeline or
  tensor split, GLB co-location), priced by one shared
  :class:`~repro.sim.sharding.ShardedExecutor` so every replica's
  cost model -- and its memoized per-sample reports -- agree.
- **The router schedules by SLO class.**  Each model maps to an
  :class:`SloClass` (a latency target and a priority, the
  latency-vs-quality service-class framing of D²NN, arXiv:1701.00299);
  the :class:`PriorityBatcher` always dispatches the highest-priority
  dispatchable queue, breaking ties by head arrival (FIFO fairness
  within a class).
- **The fleet autoscales on measured queue occupancy.**  At every
  evaluation interval the :class:`AutoscalerPolicy` compares pending
  depth / queue bound against its thresholds: sustained pressure spawns
  a new server (ready after a startup delay), sustained idleness
  retires an idle one; a cooldown keeps the loop from flapping.  Every
  decision is recorded as a scale event.
- **Clients can close the loop.**  Besides replaying open-loop traces,
  the simulator drives a
  :class:`~repro.serving.loadgen.ClosedLoopConfig` population whose
  members re-issue only after their previous request closed plus an
  exponential think pause.

Everything runs on the integer event clock and every quantity is a pure
function of (configuration, seeds): same inputs, byte-identical
:class:`FleetResult` (see ``tests/serving/test_fleet.py``).  Initial
fleet sizing comes from measured capacity -- see
:func:`initial_fleet_size` and the ``BENCH_serving.json`` feed in
:mod:`repro.bench.fleet`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

from repro.dynamic.executor import DynamicShardedExecutor
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.loadgen import ClosedLoopConfig, TraceConfig, generate_trace
from repro.serving.overload import OverloadPolicy
from repro.serving.quality import QualityPolicy
from repro.serving.request import Request, RequestRecord
from repro.serving.server import _ARRIVAL, _EventCore, _cycles
from repro.serving.slo import SloSummary, _distribution, _exit_means, summarize
from repro.sim.config import DuetConfig
from repro.sim.sharding import ShardedExecutor
from repro.validation import check_range, require_range

__all__ = [
    "AutoscalerPolicy",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "PriorityBatcher",
    "SloClass",
    "DEFAULT_SLO_CLASSES",
    "initial_fleet_size",
    "simulate_fleet",
]

_DONE, _EVAL, _UP = 2, 3, 4


@dataclass(frozen=True)
class SloClass:
    """One service class: a latency target and a scheduling priority.

    Attributes:
        name: class label (e.g. ``"interactive"``).
        target_ms: end-to-end latency target; completions within it
            count as goodput.
        priority: scheduling rank, lower dispatches first.
        sheddable: whether the quality axis may serve this class at
            early exits under pressure; non-sheddable classes always run
            full depth regardless of the fleet's quality policy.
    """

    name: str
    target_ms: float
    priority: int = 0
    sheddable: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("SloClass.name must be non-empty")
        check_range(self, "target_ms", gt=0)
        check_range(self, "priority", ge=0)


#: Default service classes: latency-sensitive interactive traffic ahead
#: of throughput-oriented bulk traffic.
DEFAULT_SLO_CLASSES = (
    SloClass(name="interactive", target_ms=30.0, priority=0),
    SloClass(name="bulk", target_ms=200.0, priority=1),
)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Occupancy-driven scale-out/in policy.

    Attributes:
        min_servers / max_servers: fleet-size bounds (scaling disabled
            when equal).
        scale_out_occupancy: queue occupancy (pending depth / queue
            bound) above which an evaluation requests a new server; the
            default matches the overload ladder's first shedding
            threshold, so capacity grows as soon as quality starts
            degrading.
        scale_in_occupancy: occupancy below which an evaluation retires
            an idle server.
        eval_interval_us: evaluation period in simulated microseconds.
        cooldown_evals: evaluations that must pass after a scale
            decision before the next one (anti-flapping).
        startup_us: delay between requesting a server and it joining
            the idle pool (model load + warmup).
    """

    min_servers: int = 1
    max_servers: int = 4
    scale_out_occupancy: float = 0.5
    scale_in_occupancy: float = 0.15
    eval_interval_us: float = 1000.0
    cooldown_evals: int = 2
    startup_us: float = 5000.0

    def __post_init__(self):
        check_range(self, "min_servers", "max_servers", ge=1)
        if self.max_servers < self.min_servers:
            raise ValueError(
                f"AutoscalerPolicy.max_servers ({self.max_servers}) must be "
                f">= min_servers ({self.min_servers})"
            )
        check_range(self, "scale_out_occupancy", gt=0, le=1)
        check_range(self, "scale_in_occupancy", ge=0)
        if self.scale_in_occupancy >= self.scale_out_occupancy:
            raise ValueError(
                "AutoscalerPolicy.scale_in_occupancy must be in [0, "
                f"scale_out_occupancy), got {self.scale_in_occupancy}"
            )
        check_range(self, "eval_interval_us", gt=0)
        check_range(self, "cooldown_evals", "startup_us", ge=0)

    @classmethod
    def fixed(cls, servers: int) -> "AutoscalerPolicy":
        """A policy that pins the fleet at exactly ``servers`` replicas."""
        return cls(min_servers=servers, max_servers=servers)

    @property
    def enabled(self) -> bool:
        """Whether the fleet size can actually change."""
        return self.max_servers > self.min_servers


def initial_fleet_size(
    rate_rps: float, server_capacity_rps: float, policy: AutoscalerPolicy
) -> int:
    """Servers to start with, from offered load and measured capacity.

    The placement feed: ``server_capacity_rps`` comes from the measured
    ``BENCH_serving.json`` batched-capacity scenario (see
    :func:`repro.bench.fleet.serving_capacity_rps`), and the initial
    fleet covers the offered rate at that capacity, clamped to the
    autoscaler's bounds.

    Args:
        rate_rps: offered arrival rate.
        server_capacity_rps: measured per-server completion capacity.
        policy: the fleet's autoscaler bounds.
    """
    require_range("rate_rps", rate_rps, gt=0)
    require_range("server_capacity_rps", server_capacity_rps, gt=0)
    needed = math.ceil(rate_rps / server_capacity_rps)
    return min(max(needed, policy.min_servers), policy.max_servers)


class PriorityBatcher(DynamicBatcher):
    """A :class:`~repro.serving.batcher.DynamicBatcher` that dispatches
    by SLO-class priority.

    Among dispatchable model queues the one whose class has the lowest
    priority rank wins; within a rank, the oldest head arrival (the
    parent's FIFO-fairness rule); remaining ties break on the model
    name for full determinism.

    Args:
        policy: dispatch policy.
        clock_hz: simulated clock.
        priorities: model name -> priority rank (missing models rank
            after every explicit entry).
    """

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        clock_hz: float = 1e9,
        priorities: dict | None = None,
    ):
        super().__init__(policy, clock_hz=clock_hz)
        self.priorities = dict(priorities) if priorities else {}
        self._default_rank = (
            max(self.priorities.values()) + 1 if self.priorities else 0
        )

    def pop_batch(self, now_cycle: int) -> list[Request] | None:
        best_key = None
        best_model = None
        for model, queue in self._queues.items():
            if not self._dispatchable(queue, now_cycle):
                continue
            key = (
                self.priorities.get(model, self._default_rank),
                queue[0].arrival_cycle,
                model,
            )
            if best_key is None or key < best_key:
                best_key, best_model = key, model
        if best_model is None:
            return None
        queue = self._queues[best_model]
        batch = [
            queue.popleft()
            for _ in range(min(len(queue), self.policy.max_batch))
        ]
        if not queue:
            del self._queues[best_model]
        self.depth -= len(batch)
        return batch


@dataclass(frozen=True)
class FleetConfig:
    """Full configuration of the fleet tier.

    Attributes:
        slo_classes: the service classes (distinct names).
        model_classes: model name -> SLO-class name; unmapped models
            fall into the *last* (lowest-priority) class.
        plans: model name -> :class:`~repro.sim.sharding.ShardPlan`
            applied on every server; unmapped models run single-chip.
        colocate: partition each chip's GLB across the mapped models
            (:func:`~repro.sim.sharding.glb_partition`).
        batch: the router's dynamic-batching policy.
        admission: the router's admission knobs (queue bound, rate
            limit).
        overload: occupancy -> degradation-rung policy.
        quality: occupancy -> early-exit-threshold policy (the depth
            axis; disabled by default).  Applies to single-chip models
            of SLO classes marked ``sheddable``; sharded models always
            run full depth.
        autoscaler: fleet sizing policy.
        initial_servers: servers active at cycle 0 (clamped into the
            autoscaler's bounds by the simulator).
        hardware: per-chip accelerator configuration.
    """

    slo_classes: tuple = DEFAULT_SLO_CLASSES
    model_classes: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    colocate: bool = False
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    quality: QualityPolicy = field(default_factory=QualityPolicy.disabled)
    autoscaler: AutoscalerPolicy = field(default_factory=AutoscalerPolicy)
    initial_servers: int = 1
    hardware: DuetConfig = field(default_factory=DuetConfig)

    def __post_init__(self):
        if not self.slo_classes:
            raise ValueError("FleetConfig.slo_classes must be non-empty")
        names = [c.name for c in self.slo_classes]
        if len(set(names)) != len(names):
            raise ValueError(
                f"FleetConfig.slo_classes names must be distinct, got {names}"
            )
        known = set(names)
        for model, cls in self.model_classes.items():
            if cls not in known:
                raise ValueError(
                    f"model {model!r} mapped to unknown SLO class {cls!r} "
                    f"(have {sorted(known)})"
                )
        check_range(self, "initial_servers", ge=1)

    def slo_class_for(self, model: str) -> SloClass:
        """The SLO class serving ``model``."""
        by_name = {c.name: c for c in self.slo_classes}
        name = self.model_classes.get(model)
        if name is None:
            return self.slo_classes[-1]
        return by_name[name]


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    Attributes:
        config: the fleet configuration.
        records: one closed record per request, in rid order.
        summary: the fleet-wide SLO account.
        per_class: SLO-class name -> its class-level account (offered,
            completed, goodput counters, latency percentiles, target).
        goodput_rps: completions *within their class target* per
            simulated second.
        scale_events: autoscaler decisions, in decision order; each has
            ``cycle``, ``action`` (``"scale_out"``/``"scale_in"``),
            ``occupancy``, and ``servers`` (active + starting after the
            decision).
        server_stats: per-server account -- ``spawn_cycle``,
            ``active_cycles``, and per-shard ``busy_cycles``.
        shard_utilization: fleet-mean busy fraction of the busiest
            shard of each server that saw traffic.
        peak_servers: most servers ever active or starting at once.
        max_queue_depth: deepest the router queue ever got.
        simulated_cycles: cycle of the last event.
    """

    config: FleetConfig
    records: list[RequestRecord]
    summary: SloSummary
    per_class: dict
    goodput_rps: float
    scale_events: list
    server_stats: list
    shard_utilization: float
    peak_servers: int
    max_queue_depth: int
    simulated_cycles: int


class _Server:
    """One shard-group replica's bookkeeping."""

    __slots__ = ("sid", "spawn_cycle", "retire_cycle", "shard_busy")

    def __init__(self, sid: int, spawn_cycle: int):
        self.sid = sid
        self.spawn_cycle = spawn_cycle
        self.retire_cycle: int | None = None
        self.shard_busy: list[int] = []

    def add_busy(self, shard_busy: list[int]) -> None:
        if len(self.shard_busy) < len(shard_busy):
            self.shard_busy.extend(
                [0] * (len(shard_busy) - len(self.shard_busy))
            )
        for index, busy in enumerate(shard_busy):
            self.shard_busy[index] += busy


class FleetSimulator(_EventCore):
    """Replays open-loop traces or closed-loop populations against one
    fleet configuration.

    Args:
        config: fleet configuration (defaults to ``FleetConfig()``).
        executor: sharded batch executor; built from ``config`` when not
            supplied (plans + optional co-location over
            ``config.hardware``; exit-aware when the quality policy is
            enabled).
    """

    _executors = (ShardedExecutor, DynamicShardedExecutor)

    def __init__(
        self,
        config: FleetConfig | None = None,
        executor: ShardedExecutor | None = None,
    ):
        config = config if config is not None else FleetConfig()
        super().__init__(
            config,
            executor,
            plans=config.plans,
            colocated=tuple(config.model_classes) if config.colocate else (),
        )

    # -- event-loop state helpers -------------------------------------

    def _spawn_server(self, now: int) -> None:
        sid = self._next_sid
        self._next_sid += 1
        self._servers[sid] = _Server(sid, spawn_cycle=now)
        heapq.heappush(self._idle, sid)

    def _active_servers(self) -> int:
        return len(self._idle) + len(self._busy)

    def _slo_class(self, model: str) -> SloClass:
        slo = self._classes.get(model)
        if slo is None:
            slo = self._classes[model] = self.config.slo_class_for(model)
        return slo

    def _arm_eval(self, now: int) -> None:
        if self._scaling and not self._eval_armed:
            self._push(now + self._eval_cycles, _EVAL)
            self._eval_armed = True

    # -- the run ------------------------------------------------------

    def run(
        self,
        trace: list[Request] | None = None,
        closed_loop: ClosedLoopConfig | None = None,
    ) -> FleetResult:
        """Simulate one workload to completion.

        Exactly one of ``trace`` (open loop) and ``closed_loop`` must be
        given.
        """
        if (trace is None) == (closed_loop is None):
            raise ValueError(
                "pass exactly one of trace= (open loop) or closed_loop="
            )
        cfg = self.config
        clock_hz = cfg.hardware.clock_hz
        self._classes: dict[str, SloClass] = {}
        priorities = {
            model: self._slo_class(model).priority
            for model in set(cfg.model_classes)
        }
        self._start(
            PriorityBatcher(cfg.batch, clock_hz=clock_hz, priorities=priorities)
        )
        self._closed_loop = closed_loop
        self._servers: dict[int, _Server] = {}
        self._idle: list[int] = []
        self._busy: dict[int, int] = {}  # sid -> completion cycle
        self._starting = 0
        self._next_sid = 0
        self._scaling = cfg.autoscaler.enabled
        self._eval_cycles = max(_cycles(cfg.autoscaler.eval_interval_us, clock_hz), 1)
        self._eval_armed = False
        self._eval_index = 0
        self._last_scale_eval: int | None = None
        self._scale_events: list[dict] = []
        self._rid_clients: dict[int, int] = {}
        self._next_rid = 0

        initial = min(
            max(cfg.initial_servers, cfg.autoscaler.min_servers),
            cfg.autoscaler.max_servers,
        )
        for _ in range(initial):
            self._spawn_server(0)
        self._peak_servers = initial

        # clients: per-client generators and remaining budgets
        self._clients: list = []
        if closed_loop is not None:
            for client in range(closed_loop.clients):
                rng = closed_loop.client_rng(client)
                self._clients.append(
                    [rng, closed_loop.requests_per_client]
                )
                self._issue(client, after_cycle=0)
        else:
            for rid, request in enumerate(trace):
                request = replace(request, rid=rid)
                self._push(request.arrival_cycle, _ARRIVAL, request)
            self._next_rid = len(trace)

        self._arm_eval(0)
        self._run_events({_DONE: self._on_done, _EVAL: self._on_eval, _UP: self._on_up})

        for server in self._servers.values():
            if server.retire_cycle is None:
                server.retire_cycle = self._last_cycle

        ordered = [self._records[rid] for rid in range(self._next_rid)]
        summary = summarize(ordered, clock_hz=clock_hz)
        per_class, goodput_rps = self._class_accounts(ordered, summary, clock_hz)
        server_stats, shard_utilization = self._server_accounts()
        return FleetResult(
            config=cfg,
            records=ordered,
            summary=summary,
            per_class=per_class,
            goodput_rps=goodput_rps,
            scale_events=self._scale_events,
            server_stats=server_stats,
            shard_utilization=shard_utilization,
            peak_servers=self._peak_servers,
            max_queue_depth=self._max_depth,
            simulated_cycles=self._last_cycle,
        )

    # -- handlers -----------------------------------------------------

    def _on_arrival(self, now: int, request: Request) -> None:
        if super()._on_arrival(now, request):
            self._arm_eval(now)
        else:
            self._reissue(request, now)

    def _on_done(self, now: int, payload: tuple) -> None:
        sid, batch = payload
        del self._busy[sid]
        server = self._servers[sid]
        if server.retire_cycle is None:
            heapq.heappush(self._idle, sid)
        else:
            server.retire_cycle = now
        for request in batch:
            self._reissue(request, now)

    def _on_up(self, now: int, _payload: object) -> None:
        self._starting -= 1
        self._spawn_server(now)

    def _on_eval(self, now: int, _payload: object) -> None:
        self._eval_armed = False
        self._eval_index += 1
        self._evaluate_scaling(now)

    def _reissue(self, request: Request, now: int) -> None:
        """Closed loop: the client of a just-closed request issues again."""
        client = self._rid_clients.get(request.rid)
        if client is not None:
            self._issue(client, after_cycle=now)

    def _issue(self, client: int, after_cycle: int) -> None:
        """Schedule a closed-loop client's next request, budget allowing."""
        rng, remaining = self._clients[client]
        if remaining <= 0:
            return
        self._clients[client][1] = remaining - 1
        think = self._closed_loop.think_cycles(rng)
        model, workload_seed = self._closed_loop.draw_request(rng)
        request = Request(
            rid=self._next_rid,
            model=model,
            arrival_cycle=after_cycle + think,
            workload_seed=workload_seed,
        )
        self._rid_clients[request.rid] = client
        self._next_rid += 1
        self._push(request.arrival_cycle, _ARRIVAL, request)

    def _dispatch(self, now: int) -> None:
        batcher = self._batcher
        while self._idle:
            batch = batcher.pop_batch(now)
            if batch is None:
                break
            sid = heapq.heappop(self._idle)
            stage, result = self._price(
                batch,
                batcher.depth + len(batch),
                sheddable=self._slo_class(batch[0].model).sheddable,
            )
            done = now + result.service_cycles
            self._servers[sid].add_busy(result.shard_busy_cycles)
            self._close_batch(batch, stage, result, now, done)
            self._busy[sid] = done
            self._push(done, _DONE, (sid, batch))
        if self._idle and batcher.depth:
            self._arm_flush(now)

    def _evaluate_scaling(self, now: int) -> None:
        cfg = self.config
        policy = cfg.autoscaler
        occupancy = self._batcher.depth / cfg.admission.max_queue_depth
        active = self._active_servers()
        cooled = (
            self._last_scale_eval is None
            or self._eval_index - self._last_scale_eval > policy.cooldown_evals
        )
        if (
            cooled
            and occupancy > policy.scale_out_occupancy
            and active + self._starting < policy.max_servers
        ):
            self._starting += 1
            self._last_scale_eval = self._eval_index
            startup = _cycles(policy.startup_us, cfg.hardware.clock_hz)
            self._push(now + startup, _UP)
            self._scale_event(now, "scale_out", occupancy)
        elif (
            cooled
            and occupancy < policy.scale_in_occupancy
            and active + self._starting > policy.min_servers
            and self._idle
        ):
            # retire the youngest idle server; low ids stay stable
            victim = max(self._idle)
            self._idle.remove(victim)
            heapq.heapify(self._idle)
            self._servers[victim].retire_cycle = now
            self._last_scale_eval = self._eval_index
            self._scale_event(now, "scale_in", occupancy)
        # keep evaluating while there is anything to react to
        if self._batcher.depth or self._busy or self._starting:
            self._arm_eval(now)

    def _scale_event(self, now: int, action: str, occupancy: float) -> None:
        servers = self._active_servers() + self._starting
        self._peak_servers = max(self._peak_servers, servers)
        self._scale_events.append(
            {
                "cycle": now,
                "action": action,
                "occupancy": occupancy,
                "servers": servers,
            }
        )

    # -- accounting ---------------------------------------------------

    def _class_accounts(self, records, summary, clock_hz):
        duration_s = (
            summary.duration_ms / 1e3 if summary.duration_ms > 0 else 0.0
        )
        members: dict[str, list] = {
            slo.name: [] for slo in self.config.slo_classes
        }
        for r in records:
            members[self._slo_class(r.request.model).name].append(r)
        per_class = {}
        total_good = 0
        for slo in self.config.slo_classes:
            completed = [r for r in members[slo.name] if r.completed]
            latencies = [r.latency_cycles / clock_hz * 1e3 for r in completed]
            good = sum(1 for value in latencies if value <= slo.target_ms)
            total_good += good
            dist = _distribution(latencies)
            per_class[slo.name] = {
                "target_ms": slo.target_ms,
                "priority": slo.priority,
                "sheddable": slo.sheddable,
                "offered": len(members[slo.name]),
                "completed": len(completed),
                "rejected": len(members[slo.name]) - len(completed),
                "good": good,
                "goodput_rps": good / duration_s if duration_s > 0 else 0.0,
                "latency_ms": {key: dist[key] for key in ("p50", "p95", "p99")},
                **_exit_means(completed),
            }
        goodput_rps = total_good / duration_s if duration_s > 0 else 0.0
        return per_class, goodput_rps

    def _server_accounts(self):
        stats = []
        utilizations = []
        for sid in sorted(self._servers):
            server = self._servers[sid]
            span = max(server.retire_cycle - server.spawn_cycle, 0)
            stats.append(
                {
                    "server": sid,
                    "spawn_cycle": server.spawn_cycle,
                    "active_cycles": span,
                    "shard_busy_cycles": list(server.shard_busy),
                }
            )
            if span > 0 and server.shard_busy:
                utilizations.append(max(server.shard_busy) / span)
        mean_utilization = (
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        return stats, mean_utilization


def simulate_fleet(
    workload: TraceConfig | list[Request] | ClosedLoopConfig,
    config: FleetConfig | None = None,
    executor: ShardedExecutor | None = None,
) -> FleetResult:
    """Convenience wrapper: generate (if needed) and replay one workload."""
    simulator = FleetSimulator(config=config, executor=executor)
    if isinstance(workload, ClosedLoopConfig):
        return simulator.run(closed_loop=workload)
    if isinstance(workload, TraceConfig):
        workload = generate_trace(workload)
    return simulator.run(trace=workload)
