"""Chaos bench: the fault-rate x policy campaign behind ``BENCH_chaos.json``.

``python -m repro chaos`` replays one seeded trace against a faulty
worker fleet (:mod:`repro.reliability.workerfaults`) under every rung of
the fault-tolerance policy ladder (:data:`repro.serving.POLICY_LADDER`)
and every fault rate of the sweep, sharded across processes via
:mod:`repro.parallel`, and writes a ``duet-chaos/1`` document:

- per cell: the fault model, the policy name, and the full
  :class:`~repro.serving.ChaosSummary` account -- goodput, latency
  percentiles, retry/hedge/breaker/respawn counters, and the two
  conservation invariants (``duplicates`` and ``lost``, both required
  to be 0 in **every** cell, including the mechanism-free baseline).
- globally: the headline verdicts -- ``zero_lost``,
  ``zero_duplicates``, and ``dominance`` (the full recovery stack beats
  the no-policy baseline on goodput at the highest fault rate,
  strictly) -- plus a ``goodput_monotone_per_policy`` diagnostic (per
  policy, did goodput avoid *increasing* as the fault rate rose?).
  Monotonicity is a diagnostic rather than a verdict because it is not
  a theorem of the system: common random numbers make the *fate
  streams* nest exactly as rates rise (that theorem is tested in
  ``tests/serving/test_faulttol.py``), but once one extra fault lands
  the serving trajectories diverge -- batches re-form, dispatch
  indices shift -- so end-to-end goodput can wiggle at nearby rates.

Two determinism devices make the verdicts robust rather than lucky:

- **One trace for all cells** (seeded from the campaign root): every
  cell sees the same arrivals, so columns differ only in faults and
  policy.
- **Common random numbers**: every cell shares one fault seed (the
  root's first ``SeedSequence`` child).  The fate of dispatch ``k`` on
  worker ``w`` is a pure function of ``(seed, w, k)`` and fate regions
  scale proportionally with the rate, so (a) the faulty dispatches at
  a lower rate *nest* inside those at a higher rate -- per-policy
  goodput monotonicity is a property of the recovery machinery, not of
  seed luck -- and (b) policies at the same rate face the *same* fault
  realisation, making the dominance comparison apples-to-apples.

Every simulated quantity is a pure function of ``(grid, root seed)``:
``--jobs 1`` and ``--jobs N`` agree byte for byte on the
:func:`deterministic view <repro.bench.document.deterministic_view>`
(and on the whole file under ``--no-perf``).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.bench.document import run_campaign, totals
from repro.parallel import CampaignTask, spawn_task_seeds
from repro.reliability.workerfaults import WorkerFaultModel
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.faulttol import (
    POLICY_LADDER,
    BreakerPolicy,
    FaultTolerancePolicy,
    HealthPolicy,
    HedgePolicy,
    RetryPolicy,
    policy_named,
    simulate_chaos,
)
from repro.serving.loadgen import TraceConfig
from repro.serving.server import ServerConfig
from repro.sim.config import DuetConfig

__all__ = [
    "CHAOS_SCHEMA",
    "FAULT_RATES",
    "SMOKE_FAULT_RATES",
    "chaos_cells",
    "chaos_fault_model",
    "chaos_policy",
    "run_chaos_bench",
]

#: schema identifier written into BENCH_chaos.json.
CHAOS_SCHEMA = "duet-chaos/1"

#: total worker-fault rates swept by the full campaign (0.0 is the
#: fault-free parity column; 0.3 means ~30% of cold-worker dispatches
#: misbehave, tripled on the "lemon" machine).
FAULT_RATES = (0.0, 0.05, 0.15, 0.3)

#: CI-sized sweep: just the parity column and the worst case.
SMOKE_FAULT_RATES = (0.0, 0.3)

#: traffic mix (one compute-bound CNN, one memory-bound RNN), fleet
#: size, and offered load of every cell; the load sits inside the
#: healthy 3-worker batched capacity so fault-free goodput ~= offered.
_MIX = ("alexnet", "lstm")
_WORKERS = 3
_RATE_RPS = 450.0
_N_REQUESTS, _N_REQUESTS_SMOKE = 400, 120

#: split of the total fault rate across fates, and the fleet's "lemon":
#: worker 0 draws every fate 3x as often, giving the circuit breaker a
#: persistently bad endpoint to isolate.  The straggle multiplier is
#: chosen to push a straggling batch past the bench's 120 ms attempt
#: timeout: unlike a crash or hang the worker stays *alive* -- health
#: checks never evict it -- so only the breaker can stop feeding it.
_CRASH_SHARE, _HANG_SHARE, _STRAGGLE_SHARE = 0.4, 0.2, 0.4
_STRAGGLE_MULTIPLIER = 8.0
_HOT_WORKERS, _HOT_MULTIPLIER = 1, 3.0


def chaos_fault_model(fault_rate: float) -> WorkerFaultModel:
    """The swept fault model at one total rate (see module constants)."""
    return WorkerFaultModel(
        crash_rate=_CRASH_SHARE * fault_rate,
        hang_rate=_HANG_SHARE * fault_rate,
        straggle_rate=_STRAGGLE_SHARE * fault_rate,
        straggle_multiplier=_STRAGGLE_MULTIPLIER,
        hot_workers=_HOT_WORKERS,
        hot_multiplier=_HOT_MULTIPLIER,
    )


#: The bench's tuned full recovery stack; every rung is cut from it.
#: The knobs deliberately stagger the recovery layers so each rung
#: exercises its own machinery instead of hiding behind another's: the
#: per-attempt timeout (120 ms) fires *before* health eviction (~3 x
#: 100 ms heartbeats), so hung and crashed attempts recover via retry
#: and feed the circuit breaker's failure counter, while the health
#: checker reclaims the wedged worker afterwards; the hedge delay sits
#: below the timeout so stragglers are raced before they are abandoned.
#: The offered load leaves ~20% fleet headroom so hedges can actually
#: find an idle worker.
_FULL_STACK = FaultTolerancePolicy(
    name=POLICY_LADDER[-1],
    retry=RetryPolicy(max_attempts=4, timeout_us=120_000.0, backoff_base_us=5_000.0),
    hedge=HedgePolicy(
        initial_delay_us=60_000.0, latency_percentile=95.0, min_samples=20
    ),
    breaker=BreakerPolicy(failure_threshold=3, reset_timeout_us=300_000.0),
    health=HealthPolicy(heartbeat_us=100_000.0, miss_threshold=3),
)


def chaos_policy(name: str) -> FaultTolerancePolicy:
    """The bench's tuned instantiation of ladder rung ``name``."""
    return policy_named(name, _FULL_STACK)


def chaos_cells(smoke: bool = False) -> list[dict]:
    """Enumerate the ``fault rate x policy`` grid as an ordered cell list.

    Rates vary fastest so each policy's sweep is contiguous; the
    enumeration order is the work-list order (stable across worker
    counts).
    """
    rates = SMOKE_FAULT_RATES if smoke else FAULT_RATES
    return [
        {"policy": policy, "fault_rate": rate}
        for policy in POLICY_LADDER
        for rate in rates
    ]


def _chaos_cell(
    policy: str,
    fault_rate: float,
    fault_seed: int,
    trace_seed: int,
    smoke: bool,
    workers: int,
    fast_path: bool,
) -> dict:
    """Simulate one grid cell; returns its JSON-ready record.

    Top-level so the engine can pickle it into worker processes; the
    trace, server, and fault model are rebuilt from plain parameters
    inside the worker (construction is cheap and pure).
    """
    n_requests = _N_REQUESTS_SMOKE if smoke else _N_REQUESTS
    trace = TraceConfig(
        n_requests=n_requests,
        rate_rps=_RATE_RPS,
        arrival="poisson",
        models=_MIX,
        seed=trace_seed,
    )
    config = ServerConfig(
        workers=workers,
        batch=BatchPolicy(max_batch=8),
        admission=AdmissionConfig(
            max_queue_depth=128, rate_limit_rps=1.5 * _RATE_RPS, burst=64
        ),
        hardware=DuetConfig(fast_path=fast_path),
    )
    faults = chaos_fault_model(fault_rate)
    result = simulate_chaos(
        trace,
        config=config,
        faults=faults,
        policy=chaos_policy(policy),
        seed=fault_seed,
    )
    return {
        "policy": policy,
        "fault_rate": fault_rate,
        "fault_seed": fault_seed,
        "trace_seed": trace_seed,
        "requests": n_requests,
        "rate_rps": _RATE_RPS,
        "workers": workers,
        "faults": asdict(faults),
        "max_queue_depth_seen": result.max_queue_depth_seen,
        "simulated_ms": result.simulated_cycles / config.hardware.clock_hz * 1e3,
        "summary": result.summary.as_dict(),
    }


def _monotone_per_policy(records: list[dict]) -> dict:
    """Per policy: is goodput non-increasing as the fault rate rises?"""
    verdicts = {}
    for policy in POLICY_LADDER:
        sweep = sorted(
            (r for r in records if r["policy"] == policy),
            key=lambda r: r["fault_rate"],
        )
        goodputs = [r["summary"]["goodput_rps"] for r in sweep]
        verdicts[policy] = all(
            later <= earlier + 1e-9
            for earlier, later in zip(goodputs, goodputs[1:])
        )
    return verdicts


def run_chaos_bench(
    smoke: bool = False,
    root_seed: int = 0,
    workers: int = _WORKERS,
    fast_path: bool = True,
    jobs: int = 1,
    output: str | Path | None = "BENCH_chaos.json",
    with_perf: bool = True,
    progress=None,
) -> dict:
    """Run the chaos campaign and (optionally) write ``BENCH_chaos.json``.

    Args:
        smoke: CI-sized sweep (2 rates x 4 policies, 120 requests/cell)
            instead of the full grid (4 x 4, 400 requests/cell).
        root_seed: campaign root.  The shared trace is seeded with it
            directly; the shared fault seed is its first
            ``SeedSequence.spawn`` child (independent of ``jobs``).
        workers: simulated accelerators in the fleet.
        fast_path: simulate on the vectorized fast path (True) or the
            per-event slow-path oracle (False).
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-chaos/1`` document (also written to ``output``).
    """
    cells = chaos_cells(smoke)
    (fault_seed,) = spawn_task_seeds(root_seed, 1)
    tasks = [
        CampaignTask(
            fn=_chaos_cell,
            kwargs={
                **cell,
                "fault_seed": fault_seed,
                "trace_seed": root_seed,
                "smoke": smoke,
                "workers": workers,
                "fast_path": fast_path,
            },
        )
        for cell in cells
    ]

    def merge(records: list[dict]) -> dict:
        rates = sorted({r["fault_rate"] for r in records})
        max_rate = rates[-1]

        def goodput(policy: str, rate: float) -> float:
            return next(
                r["summary"]["goodput_rps"]
                for r in records
                if r["policy"] == policy and r["fault_rate"] == rate
            )

        baseline, full_stack = POLICY_LADDER[0], POLICY_LADDER[-1]
        return {
            "schema": CHAOS_SCHEMA,
            "smoke": smoke,
            "root_seed": root_seed,
            "workers": workers,
            "fast_path": fast_path,
            "policies": list(POLICY_LADDER),
            "fault_rates": rates,
            "cells": records,
            "aggregates": {
                "tasks": len(records),
                **totals(
                    [r["summary"] for r in records],
                    "offered", "completed", "failed", "rejected", "retries",
                    "hedges", "breaker_opens", "evictions", "lost", "duplicates",
                ),
            },
            "dominance": {
                "fault_rate": max_rate,
                "baseline_policy": baseline,
                "baseline_goodput_rps": goodput(baseline, max_rate),
                "full_stack_policy": full_stack,
                "full_stack_goodput_rps": goodput(full_stack, max_rate),
            },
            "verdicts": {
                "zero_lost": all(r["summary"]["lost"] == 0 for r in records),
                "zero_duplicates": all(
                    r["summary"]["duplicates"] == 0 for r in records
                ),
                "dominance": goodput(full_stack, max_rate) > goodput(baseline, max_rate),
            },
            "diagnostics": {
                "goodput_monotone_per_policy": _monotone_per_policy(records),
            },
        }

    return run_campaign(
        CHAOS_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
    )
