"""Unified repro bench campaigns (``python -m repro bench``, ``loadgen``, ...).

Six machine-readable bench reports, all sharded across worker
processes by :mod:`repro.parallel` (``--jobs N``) with byte-identical
simulated results for any worker count:

- ``BENCH_duet.json`` (``python -m repro bench``): times the simulator's
  vectorized fast path against the per-event slow path (the reference
  oracle) on the paper's experiment suites.
- ``BENCH_serving.json`` (``python -m repro loadgen``): the serving-tier
  SLO campaign -- nominal / overload / batching-capacity scenarios over
  seeded arrival traces (:mod:`repro.bench.serving`).
- ``BENCH_faults.json`` (``python -m repro faults``, no ``--model``):
  the reliability campaign grid with its invariant verdicts
  (:mod:`repro.bench.faults`).
- ``BENCH_chaos.json`` (``python -m repro chaos``): the fault-tolerant
  serving sweep -- fault rate x recovery policy, with conservation and
  dominance verdicts (:mod:`repro.bench.chaos`).
- ``BENCH_fleet.json`` (``python -m repro fleet``): the fleet-tier
  campaign -- sharded servers, SLO-class scheduling, autoscaling, and
  closed-loop clients, with goodput-dominance and autoscale verdicts
  (:mod:`repro.bench.fleet`).
- ``BENCH_dynamic.json`` (``python -m repro dynamic``): the
  selective-execution campaign -- the accuracy-vs-cycles Pareto sweep
  over exit thresholds, the static-parity degeneration check, and the
  quality-vs-ladder overload serving comparison
  (:mod:`repro.bench.dynamic`).

Modules:

- :mod:`repro.bench.suites` -- the registry mapping suite names to
  ``benchmarks/bench_*.py`` files and their simulator-level runners.
- :mod:`repro.bench.harness` -- discovery, warmup/repeat timing,
  and fast-vs-slow equivalence checking.
- :mod:`repro.bench.serving`, :mod:`repro.bench.faults`,
  :mod:`repro.bench.chaos`, :mod:`repro.bench.fleet`,
  :mod:`repro.bench.dynamic` -- the other five campaigns; each builds
  its task list and merge and hands them to ``run_campaign``.
- :mod:`repro.bench.document` -- ``run_campaign`` (shard, merge,
  ``perf`` block, cross-run ``history``, atomic emission) and the
  determinism view.

See ``docs/performance.md`` for how to run the timing harness,
``docs/serving.md`` for the serving campaign, and ``docs/benchmarks.md``
for the paper-figure mapping of every bench file.
"""

from repro.bench.chaos import run_chaos_bench
from repro.bench.document import deterministic_view
from repro.bench.dynamic import (
    DYNAMIC_SCHEMA,
    dynamic_scenarios,
    exit_thresholds,
    run_dynamic_bench,
)
from repro.bench.faults import run_fault_matrix
from repro.bench.fleet import run_fleet_bench
from repro.bench.harness import run_bench
from repro.bench.serving import SERVE_SCHEMA, run_serving_bench, serve_scenarios
from repro.bench.suites import SUITES

__all__ = [
    "DYNAMIC_SCHEMA",
    "SERVE_SCHEMA",
    "SUITES",
    "deterministic_view",
    "dynamic_scenarios",
    "exit_thresholds",
    "run_bench",
    "run_chaos_bench",
    "run_dynamic_bench",
    "run_fault_matrix",
    "run_fleet_bench",
    "run_serving_bench",
    "serve_scenarios",
]
