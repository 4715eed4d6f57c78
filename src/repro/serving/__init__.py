"""Async batched serving front end for the simulated DUET accelerator.

Models million-user inference traffic end to end on the fast-path
simulator: a seeded open-loop load generator feeds an admission
controller (token bucket + bounded queue with 429-style rejects), a
dynamic batcher (max-batch / max-wait microbatching, one FIFO per
model), and a pool of N simulated :class:`~repro.sim.DuetAccelerator`
workers that shed capability down the reliability subsystem's ladder
(``DUET -> IOS -> BOS -> OS``) under queue pressure before anything is
rejected.  Every run closes with a full SLO account -- p50/p95/p99
latency, throughput, reject and degrade rates, per-rung serve counts.

Entry points:

- :func:`simulate_serving` -- replay a trace.
- :func:`~repro.serving.faulttol.simulate_chaos` -- the same front end
  over a *faulty* fleet (crash/hang/straggle) with retries, hedging,
  circuit breakers, and health-checked respawn.
- :class:`~repro.serving.fleet.FleetSimulator` -- the fleet tier:
  N sharded servers (:mod:`repro.sim.sharding`) behind a router
  with per-model SLO classes, priority scheduling, occupancy-driven
  autoscaling, and closed-loop clients.
- :func:`~repro.serving.loadgen.generate_trace` -- seeded Poisson /
  bursty arrival traces.
- ``python -m repro serve`` -- one campaign, human-readable SLO report.
- ``python -m repro loadgen`` -- the scenario campaign behind
  ``BENCH_serving.json`` (:mod:`repro.bench.serving`).
- ``python -m repro chaos`` -- the fault-rate x policy campaign behind
  ``BENCH_chaos.json`` (:mod:`repro.bench.chaos`).
- ``python -m repro fleet`` -- the fleet scenario campaign behind
  ``BENCH_fleet.json`` (:mod:`repro.bench.fleet`).

See ``docs/serving.md`` for the queueing model and SLO semantics, and
``docs/fault_tolerance.md`` for the fault model and recovery machinery.
"""

from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.faulttol import POLICY_LADDER
from repro.serving.fleet import AutoscalerPolicy, FleetConfig
from repro.serving.loadgen import ARRIVAL_PROCESSES, TraceConfig
from repro.serving.server import ServerConfig, simulate_serving

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionConfig",
    "AutoscalerPolicy",
    "BatchPolicy",
    "FleetConfig",
    "POLICY_LADDER",
    "ServerConfig",
    "TraceConfig",
    "simulate_serving",
]
