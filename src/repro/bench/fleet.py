"""Fleet bench: the sharded-serving campaign behind ``BENCH_fleet.json``.

``python -m repro fleet`` runs four scenarios against the fleet tier
(:mod:`repro.serving.fleet`), sharded across processes via
:mod:`repro.parallel`, and writes a ``duet-fleet/1`` document:

- ``single_chip``: the baseline -- one unsharded, unbatched server on
  the reference trace.  Everything else must beat this.
- ``sharded_fleet``: the same trace against a capacity-planned fleet of
  shard groups (per-model splits chosen by the placement search
  :func:`repro.sim.sharding.plan_for`) with dynamic batching and
  SLO-class priority scheduling.  The headline verdict
  ``goodput_dominance`` requires its goodput to be at least the
  baseline's.
- ``overload_autoscale``: an overload trace against a fleet that starts
  at one server with the occupancy autoscaler enabled; the verdict
  ``autoscale_out_observed`` requires at least one scale-out event.
- ``closed_loop``: a think-time client population
  (:class:`~repro.serving.loadgen.ClosedLoopConfig`); the verdict
  ``closed_loop_conserved`` requires every issued request to close.

**The capacity feed.**  Initial fleet sizes come from *measured*
numbers: :func:`serving_capacity_rps` reads the committed
``BENCH_serving.json`` (validated against ``duet-serve/1``), divides
its batched-capacity throughput by the workers that produced it, and
:func:`repro.serving.fleet.initial_fleet_size` turns offered load into
a replica count.  When the file is absent (fresh checkout) a recorded
fallback capacity keeps the campaign self-contained; the document
records which source fed it.

Every simulated quantity is a pure function of (scenario grid, root
seed): ``--jobs 1`` and ``--jobs N`` agree byte for byte on the
:func:`deterministic view <repro.bench.document.deterministic_view>`
(and on the whole file under ``--no-perf``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.analysis.schema import SchemaError, validate_schema
from repro.bench.document import run_campaign, totals
from repro.bench.serving import SERVE_SCHEMA
from repro.parallel import CampaignTask, spawn_task_seeds
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.fleet import (
    AutoscalerPolicy,
    FleetConfig,
    FleetSimulator,
    initial_fleet_size,
)
from repro.serving.loadgen import ClosedLoopConfig, TraceConfig, generate_trace
from repro.sim.sharding import ShardedExecutor, plan_for
from repro.sim.batching import BatchExecutor
from repro.sim.config import DuetConfig

__all__ = [
    "FLEET_SCHEMA",
    "FALLBACK_CAPACITY_RPS",
    "fleet_scenarios",
    "run_fleet_bench",
    "serving_capacity_rps",
]

#: schema identifier written into BENCH_fleet.json.
FLEET_SCHEMA = "duet-fleet/1"

#: per-server batched capacity assumed when no measured
#: BENCH_serving.json is available: the committed document's
#: ``batched_throughput_rps / workers`` (929.8 rps over 2 workers),
#: rounded down so the fallback never over-provisions less than the
#: measurement would.
FALLBACK_CAPACITY_RPS = 460.0

#: traffic mix and SLO mapping of every scenario: the compute-bound CNN
#: is the latency-sensitive interactive class, the memory-bound RNN the
#: throughput-oriented bulk class.
_MIX = ("alexnet", "lstm")
_MODEL_CLASSES = {"alexnet": "interactive", "lstm": "bulk"}

#: chips per shard group, and the reference/overload offered loads.
_SHARDS = 2
_RATE_RPS = 800.0
_OVERLOAD_RATE_RPS = 2500.0
_N_REQUESTS, _N_REQUESTS_SMOKE = 500, 150
_CLIENTS, _CLIENTS_SMOKE = 12, 6
_REQUESTS_PER_CLIENT, _REQUESTS_PER_CLIENT_SMOKE = 25, 10


def _positive_number(value) -> bool:
    """Whether ``value`` is a finite number above zero (bools are not)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def serving_capacity_rps(path: str | Path | None = "BENCH_serving.json") -> tuple[float, str]:
    """Measured per-server capacity from ``BENCH_serving.json``.

    Returns ``(capacity_rps, source)`` where ``source`` names what fed
    the number: the document path when it exists, validates, and holds
    a positive finite ``batching.batched_throughput_rps`` and a positive
    integer ``workers``; else ``"fallback"`` with
    :data:`FALLBACK_CAPACITY_RPS`.
    """
    if path is not None:
        document_path = Path(path)
        if document_path.is_file():
            try:
                document = json.loads(document_path.read_text())
                validate_schema(document, SERVE_SCHEMA)
            except (OSError, ValueError, SchemaError):
                return FALLBACK_CAPACITY_RPS, "fallback"
            batching = document.get("batching")
            workers = document.get("workers")
            throughput = (
                batching.get("batched_throughput_rps")
                if isinstance(batching, dict)
                else None
            )
            if (
                _positive_number(throughput)
                and _positive_number(workers)
                and isinstance(workers, int)
            ):
                return throughput / workers, document_path.name
    return FALLBACK_CAPACITY_RPS, "fallback"


def fleet_scenarios(smoke: bool = False, capacity_rps: float = FALLBACK_CAPACITY_RPS) -> list[dict]:
    """Enumerate the campaign's scenarios as ordered parameter records.

    The enumeration order is the work-list order (stable across worker
    counts).  All parameters are plain picklable values; fleet/trace
    objects are rebuilt inside the worker.
    """
    n_requests = _N_REQUESTS_SMOKE if smoke else _N_REQUESTS
    nominal_servers = initial_fleet_size(
        _RATE_RPS, capacity_rps, AutoscalerPolicy(min_servers=1, max_servers=4)
    )
    return [
        {
            "name": "single_chip",
            "mode": "open",
            "rate_rps": _RATE_RPS,
            "requests": n_requests,
            "servers": 1,
            "max_servers": 1,
            "shards": 1,
            "max_batch": 1,
        },
        {
            "name": "sharded_fleet",
            "mode": "open",
            "rate_rps": _RATE_RPS,
            "requests": n_requests,
            "servers": nominal_servers,
            "max_servers": nominal_servers,
            "shards": _SHARDS,
            "max_batch": 8,
        },
        {
            "name": "overload_autoscale",
            "mode": "open",
            "rate_rps": _OVERLOAD_RATE_RPS,
            "requests": n_requests,
            "servers": 1,
            "max_servers": 4,
            "shards": _SHARDS,
            "max_batch": 8,
        },
        {
            "name": "closed_loop",
            "mode": "closed",
            "clients": _CLIENTS_SMOKE if smoke else _CLIENTS,
            "requests_per_client": (
                _REQUESTS_PER_CLIENT_SMOKE if smoke else _REQUESTS_PER_CLIENT
            ),
            "servers": nominal_servers,
            "max_servers": nominal_servers,
            "shards": _SHARDS,
            "max_batch": 8,
        },
    ]


def _fleet_config(scenario: dict, fast_path: bool) -> FleetConfig:
    """Build one scenario's fleet configuration (inside the worker)."""
    hardware = DuetConfig(fast_path=fast_path)
    plans = {}
    if scenario["shards"] > 1:
        probe = BatchExecutor(config=hardware)
        plans = {
            model: plan_for(model, scenario["shards"], probe)
            for model in _MIX
        }
    autoscaler = AutoscalerPolicy(
        min_servers=min(scenario["servers"], scenario["max_servers"]),
        max_servers=scenario["max_servers"],
    )
    return FleetConfig(
        model_classes=dict(_MODEL_CLASSES),
        plans=plans,
        batch=BatchPolicy(max_batch=scenario["max_batch"]),
        admission=AdmissionConfig(max_queue_depth=128),
        autoscaler=autoscaler,
        initial_servers=scenario["servers"],
        hardware=hardware,
    )


def _fleet_scenario(
    scenario: dict, trace_seed: int, client_seed: int, fast_path: bool
) -> dict:
    """Simulate one scenario; returns its JSON-ready record.

    Top-level so the engine can pickle it into worker processes.
    """
    config = _fleet_config(scenario, fast_path)
    simulator = FleetSimulator(config=config)
    if scenario["mode"] == "closed":
        population = ClosedLoopConfig(
            clients=scenario["clients"],
            requests_per_client=scenario["requests_per_client"],
            models=_MIX,
            seed=client_seed,
        )
        result = simulator.run(closed_loop=population)
        offered_target = scenario["clients"] * scenario["requests_per_client"]
    else:
        trace = generate_trace(
            TraceConfig(
                n_requests=scenario["requests"],
                rate_rps=scenario["rate_rps"],
                models=_MIX,
                seed=trace_seed,
            )
        )
        result = simulator.run(trace=trace)
        offered_target = scenario["requests"]
    return {
        "name": scenario["name"],
        "params": dict(scenario),
        "plans": {
            model: {"kind": plan.kind, "shards": plan.shards}
            for model, plan in sorted(config.plans.items())
        },
        "offered_target": offered_target,
        "summary": result.summary.as_dict(),
        "per_class": result.per_class,
        "goodput_rps": result.goodput_rps,
        "scale_events": result.scale_events,
        "scale_outs": sum(
            1 for e in result.scale_events if e["action"] == "scale_out"
        ),
        "scale_ins": sum(
            1 for e in result.scale_events if e["action"] == "scale_in"
        ),
        "server_stats": result.server_stats,
        "shard_utilization": result.shard_utilization,
        "peak_servers": result.peak_servers,
        "max_queue_depth": result.max_queue_depth,
        "simulated_ms": result.simulated_cycles
        / config.hardware.clock_hz
        * 1e3,
    }


def run_fleet_bench(
    smoke: bool = False,
    root_seed: int = 0,
    fast_path: bool = True,
    jobs: int = 1,
    output: str | Path | None = "BENCH_fleet.json",
    capacity_source: str | Path | None = "BENCH_serving.json",
    with_perf: bool = True,
    progress=None,
) -> dict:
    """Run the fleet campaign and (optionally) write ``BENCH_fleet.json``.

    Args:
        smoke: CI-sized scenarios (150 requests / 6 clients) instead of
            the full campaign (500 requests / 12 clients).
        root_seed: campaign root.  Open-loop traces are seeded with it
            directly; the closed-loop population seed is its first
            ``SeedSequence.spawn`` child (independent of ``jobs``).
        fast_path: simulate on the vectorized fast path (True) or the
            per-event slow-path oracle (False).
        capacity_source: path of the measured ``BENCH_serving.json``
            feeding placement (None forces the recorded fallback).
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-fleet/1`` document (also written to ``output``).
    """
    capacity_rps, capacity_from = serving_capacity_rps(capacity_source)
    scenarios = fleet_scenarios(smoke, capacity_rps=capacity_rps)
    (client_seed,) = spawn_task_seeds(root_seed, 1)
    tasks = [
        CampaignTask(
            fn=_fleet_scenario,
            kwargs={
                "scenario": scenario,
                "trace_seed": root_seed,
                "client_seed": client_seed,
                "fast_path": fast_path,
            },
        )
        for scenario in scenarios
    ]

    def merge(records: list[dict]) -> dict:
        by_name = {record["name"]: record for record in records}
        baseline = by_name["single_chip"]
        sharded = by_name["sharded_fleet"]
        overload = by_name["overload_autoscale"]
        closed = by_name["closed_loop"]
        closed_summary = closed["summary"]
        return {
            "schema": FLEET_SCHEMA,
            "smoke": smoke,
            "root_seed": root_seed,
            "fast_path": fast_path,
            "capacity_feed": {
                "source": capacity_from,
                "server_capacity_rps": capacity_rps,
                "nominal_rate_rps": _RATE_RPS,
                "nominal_servers": sharded["params"]["servers"],
            },
            "scenarios": records,
            "aggregates": {
                "tasks": len(records),
                **totals(
                    [r["summary"] for r in records], "offered", "completed", "rejected"
                ),
                **totals(records, "scale_outs", "scale_ins"),
            },
            "dominance": {
                "baseline_goodput_rps": baseline["goodput_rps"],
                "sharded_goodput_rps": sharded["goodput_rps"],
                "speedup": (
                    sharded["goodput_rps"] / baseline["goodput_rps"]
                    if baseline["goodput_rps"] > 0
                    else None
                ),
            },
            "verdicts": {
                "goodput_dominance": (
                    sharded["goodput_rps"] >= baseline["goodput_rps"]
                ),
                "autoscale_out_observed": overload["scale_outs"] >= 1,
                "closed_loop_conserved": (
                    closed_summary["offered"] == closed["offered_target"]
                    and closed_summary["completed"] + closed_summary["rejected"]
                    == closed_summary["offered"]
                ),
            },
        }

    return run_campaign(
        FLEET_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
    )
