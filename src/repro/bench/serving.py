"""Serving bench: SLO scenario campaign writing ``BENCH_serving.json``.

``python -m repro loadgen`` drives four scenarios through the serving
front end (:mod:`repro.serving`) and emits a machine-readable
``duet-serve/1`` document:

- ``nominal``: arrival rate well inside capacity -- the steady-state SLO
  baseline (expect zero rejects, minimal queueing).
- ``overload``: ~6x the batched capacity against a bounded queue and a
  token-bucket rate limit -- exercises the full response: dynamic
  batching, ladder shedding (``DUET -> IOS -> BOS -> OS``), and both
  429-style reject reasons.
- ``capacity_batch1`` / ``capacity_batched``: the same saturating trace
  served without batching (``max_batch=1``) and with it, queue opened
  wide and shedding disabled, so each arm's throughput measures raw
  service capacity at full DUET quality on *equal simulated hardware*.
  The headline ``batching.speedup`` is their ratio (regression floor:
  >= 2x, ``tests/serving/test_bench.py``).

Every **simulated** quantity in the document is a pure function of
``(seed, scale, flags)`` -- identical on the fast path and the slow-path
oracle, and for any ``--jobs`` value (see
:func:`repro.bench.document.run_campaign`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.document import run_campaign
from repro.parallel import CampaignTask
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.loadgen import ARRIVAL_PROCESSES, TraceConfig
from repro.serving.overload import OverloadPolicy
from repro.serving.server import ServerConfig, simulate_serving
from repro.sim.config import DuetConfig
from repro.validation import require_range

__all__ = ["SERVE_SCHEMA", "ServeScenario", "run_serving_bench", "serve_scenarios"]

#: schema identifier written into BENCH_serving.json.
SERVE_SCHEMA = "duet-serve/1"

#: traffic mix of every scenario: one compute-bound CNN, one
#: memory-bound RNN (the two regimes of Fig. 11/12).
_MIX = ("alexnet", "lstm")

#: per-worker request rates (requests/s) anchoring the scenarios; the
#: default 2-worker batch=1 capacity on the mix is ~106 req/s/worker.
_NOMINAL_RPS, _OVERLOAD_RPS, _CAPACITY_RPS = 60.0, 600.0, 800.0


@dataclass(frozen=True)
class ServeScenario:
    """One named (trace, server) pairing of the campaign."""

    name: str
    description: str
    trace: TraceConfig
    server: ServerConfig


def _requests(base: int, scale: float) -> int:
    return max(20, int(round(base * scale)))


def serve_scenarios(
    smoke: bool = False,
    seed: int = 0,
    workers: int = 2,
    max_batch: int = 8,
    arrival: str = "poisson",
    scale: float = 1.0,
    fast_path: bool = True,
) -> list[ServeScenario]:
    """Build the campaign's scenario list.

    Args:
        smoke: CI-sized request counts (~2k total) instead of full (~10k).
        seed: campaign seed (each scenario offsets it so traces differ).
        workers: simulated accelerators per scenario.
        max_batch: dynamic-batching cap of the batched arms.
        arrival: arrival process for every trace.
        scale: request-count multiplier (floor of 20 per scenario).
        fast_path: simulate on the vectorized fast path (True) or the
            per-event slow-path oracle (False).
    """
    if arrival not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"arrival must be one of {ARRIVAL_PROCESSES}, got {arrival!r}"
        )
    require_range("scale", scale, gt=0)
    size = scale if smoke else 5.0 * scale
    hardware = DuetConfig(fast_path=fast_path)
    batched = BatchPolicy(max_batch=max_batch)

    def trace(n, rate, seed_offset):
        return TraceConfig(
            n_requests=_requests(n, size),
            rate_rps=rate * workers,
            arrival=arrival,
            models=_MIX,
            seed=seed + seed_offset,
        )

    def open_admission(n):
        # a queue bound at the trace length never sheds or rejects:
        # the capacity arms must drain every request at full quality
        return AdmissionConfig(max_queue_depth=_requests(n, size))

    capacity_trace = trace(400, _CAPACITY_RPS, seed_offset=2)
    return [
        ServeScenario(
            name="nominal",
            description="steady state inside capacity: the SLO baseline",
            trace=trace(600, _NOMINAL_RPS, seed_offset=0),
            server=ServerConfig(
                workers=workers, batch=batched, hardware=hardware
            ),
        ),
        ServeScenario(
            name="overload",
            description=(
                "sustained ~6x overload against a bounded queue and a "
                "token-bucket rate limit: shedding + 429s"
            ),
            trace=trace(700, _OVERLOAD_RPS, seed_offset=1),
            server=ServerConfig(
                workers=workers,
                batch=batched,
                admission=AdmissionConfig(
                    max_queue_depth=64,
                    rate_limit_rps=400.0 * workers,
                    burst=96,
                ),
                hardware=hardware,
            ),
        ),
        ServeScenario(
            name="capacity_batch1",
            description="saturating trace, batching off: the capacity foil",
            trace=capacity_trace,
            server=ServerConfig(
                workers=workers,
                batch=BatchPolicy(max_batch=1),
                admission=open_admission(400),
                overload=OverloadPolicy.disabled(),
                hardware=hardware,
            ),
        ),
        ServeScenario(
            name="capacity_batched",
            description=(
                f"the same saturating trace, dynamic batching up to "
                f"{max_batch}: equal hardware, >= 2x the throughput"
            ),
            trace=capacity_trace,
            server=ServerConfig(
                workers=workers,
                batch=batched,
                admission=open_admission(400),
                overload=OverloadPolicy.disabled(),
                hardware=hardware,
            ),
        ),
    ]


def _server_record(server: ServerConfig) -> dict:
    """The JSON-ready slice of a server configuration."""
    return {
        "workers": server.workers,
        "max_batch": server.batch.max_batch,
        "max_wait_us": server.batch.max_wait_us,
        "max_queue_depth": server.admission.max_queue_depth,
        "rate_limit_rps": server.admission.rate_limit_rps,
        "burst": server.admission.burst,
        "overload_thresholds": list(server.overload.thresholds),
        "fast_path": server.hardware.fast_path,
    }


def _scenario_task(name: str, params: dict) -> dict:
    """Simulate one named scenario of the campaign (sharded task).

    Rebuilds the scenario list from the campaign parameters inside the
    worker -- scenario construction is cheap and pure, and shipping
    plain parameters keeps the task kwargs trivially picklable.
    """
    scenario = next(
        s for s in serve_scenarios(**params) if s.name == name
    )
    result = simulate_serving(scenario.trace, config=scenario.server)
    return {
        "name": scenario.name,
        "description": scenario.description,
        "requests": scenario.trace.n_requests,
        "rate_rps": scenario.trace.rate_rps,
        "arrival": scenario.trace.arrival,
        "models": list(scenario.trace.models),
        "trace_seed": scenario.trace.seed,
        "server": _server_record(scenario.server),
        "max_queue_depth_seen": result.max_queue_depth,
        "simulated_ms": result.simulated_cycles
        / scenario.server.hardware.clock_hz
        * 1e3,
        "summary": result.summary.as_dict(),
    }


def run_serving_bench(
    smoke: bool = False,
    seed: int = 0,
    workers: int = 2,
    max_batch: int = 8,
    arrival: str = "poisson",
    scale: float = 1.0,
    fast_path: bool = True,
    output: str | Path | None = "BENCH_serving.json",
    progress=None,
    jobs: int = 1,
    with_perf: bool = True,
) -> dict:
    """Run the campaign and (optionally) write ``BENCH_serving.json``.

    Args:
        smoke / seed / workers / max_batch / arrival / scale / fast_path:
            see :func:`serve_scenarios`.
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-serve/1`` document (also written to ``output``).
    """
    params = {
        "smoke": smoke,
        "seed": seed,
        "workers": workers,
        "max_batch": max_batch,
        "arrival": arrival,
        "scale": scale,
        "fast_path": fast_path,
    }
    scenarios = serve_scenarios(**params)
    tasks = [
        CampaignTask(
            fn=_scenario_task,
            kwargs={"name": scenario.name, "params": params},
        )
        for scenario in scenarios
    ]

    def merge(records: list[dict]) -> dict:
        by_name = {record["name"]: record for record in records}
        batch1 = by_name["capacity_batch1"]["summary"]["throughput_rps"]
        batched = by_name["capacity_batched"]["summary"]["throughput_rps"]
        return {
            "schema": SERVE_SCHEMA,
            "smoke": smoke,
            "seed": seed,
            "arrival": arrival,
            "workers": workers,
            "max_batch": max_batch,
            "scale": scale,
            "fast_path": fast_path,
            "requests_offered": sum(r["requests"] for r in records),
            "scenarios": records,
            "batching": {
                "batch1_throughput_rps": batch1,
                "batched_throughput_rps": batched,
                "max_batch": max_batch,
                "speedup": batched / batch1 if batch1 else None,
            },
        }

    return run_campaign(
        SERVE_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
        history_keys=("smoke", "requests_offered", "batching"),
    )
