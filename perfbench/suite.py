"""The four benchmark workloads.

Each workload builds its inputs from the run's seed in :meth:`setup`,
hands the timing loop one closed-loop op at a time through
:meth:`prepare` (the returned thunk is what gets timed), and verifies
each op's output in :meth:`check`, outside the timer.  The ops of one
workload all do the same kind of work -- a whole zoo sweep, one trace
through all three serving loops, one threshold fraction, a whole
campaign pass -- so their median is a stable latency.

Library entry points are called through their modules
(``sparsity.cnn_workloads``, ``accelerator.DuetAccelerator``) so that a
traced run's wrappers (:mod:`perfbench.spans`) see every call.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import repro.bench.chaos as bench_chaos
import repro.bench.dynamic as bench_dynamic
import repro.bench.faults as bench_faults
import repro.bench.fleet as bench_fleet
import repro.bench.harness as bench_harness
import repro.bench.serving as bench_serving
from repro.models import dualize, proxies
from repro.models.registry import MODEL_REGISTRY, get_model_spec
from repro.nn.data import GaussianMixtureImages
from repro.serving import (
    AdmissionConfig,
    AutoscalerPolicy,
    BatchPolicy,
    FleetConfig,
    ServerConfig,
    TraceConfig,
    faulttol,
    fleet,
    loadgen,
    server,
)
from repro.serving.overload import SERVING_LADDER
from repro.serving.request import COMPLETED, FAILED, REJECTED
from repro.sim import accelerator, event
from repro.sim.batching import BatchExecutor
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.sim.sharding import ShardedExecutor
from repro.workloads import sparsity


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` derived 32-bit seeds, a pure function of ``(seed, n)``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Workload:
    """One benchmark workload (see the module docstring for the protocol).

    Args:
        seed: the run's ``--seed``; every input derives from it.
        size: ``"full"`` (the benchmark) or ``"tiny"`` (tests).
        workdir: scratch directory inside the checkout for files the
            workload writes.
    """

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = self.sizes[size]
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """Build inputs and warm lazy state; runs before the first op."""

    def prepare(self, i: int):
        """Untimed preparation of op ``i``; returns the thunk to time."""
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        """Whether op ``i``'s output is correct (untimed)."""
        raise NotImplementedError

    def layer_metrics(self) -> dict:
        """Traced-run metrics read off the ops' own results: simulated
        counts, which must repeat exactly for a seed, and the campaigns'
        ``perf`` blocks."""
        return {}


class ZooSweep(Workload):
    """Fig. 11(a)/12(a) design-space use: every zoo model at every stage.

    One op samples fresh sparsity maps for each of the seven zoo models
    (``cnn_workloads``/``rnn_workloads``) and simulates them at all five
    :data:`~repro.sim.config.STAGES`.  Per-map kernel caches start cold in
    every op because the maps are new objects.
    """

    name = "zoo_sweep"
    models = tuple(MODEL_REGISTRY)
    sizes = {"full": {"map_seeds": 16}, "tiny": {"map_seeds": 2}}
    #: models whose analytical totals are set against the event schedule.
    event_models = ("alexnet", "vgg16", "resnet18", "resnet50")

    def setup(self) -> None:
        self.specs = {name: get_model_spec(name) for name in self.models}
        self.map_seeds = _seeds(self.seed, self.size["map_seeds"])
        self.first = None  # op 0's reports, the source of the hw.* counts
        self.prepare(0)()  # fill lazy tiling/speculator state

    def _workloads(self, name: str, i: int):
        """Op ``i``'s sparsity maps for model ``name``."""
        spec = self.specs[name]
        maps = sparsity.SparsityModel(seed=self.map_seeds[i % len(self.map_seeds)])
        if spec.domain == "cnn":
            return sparsity.cnn_workloads(spec, maps)
        return sparsity.rnn_workloads(spec, maps)

    def prepare(self, i: int):
        def run():
            out = {}
            for name, spec in self.specs.items():
                workloads = self._workloads(name, i)
                out[name] = {
                    stage: accelerator.DuetAccelerator(stage=stage).run(spec, workloads)
                    for stage in STAGES
                }
            return out

        return run

    def check(self, i: int, reports) -> bool:
        """Positive cycles everywhere, and one model per op (cycling through
        the zoo) re-simulated at ``DUET`` on the slow-path oracle matches
        every ``LayerReport`` counter and energy value."""
        if i == 0:
            self.first = reports
        if not all(r.total_cycles > 0 for stages in reports.values() for r in stages.values()):
            return False
        name = self.models[i % len(self.models)]
        oracle = accelerator.DuetAccelerator(
            config=stage_config("DUET", base=DuetConfig(fast_path=False))
        ).run(self.specs[name], self._workloads(name, i))
        return oracle.layers == reports[name]["DUET"].layers

    def layer_metrics(self) -> dict:
        if self.first is None:
            return {}
        out = {}
        for name in self.models:
            duet, base = self.first[name]["DUET"], self.first[name]["BASE"]
            out[f"hw.{name}.duet_cycles"] = duet.total_cycles
            out[f"hw.{name}.speedup_vs_base"] = duet.speedup_over(base)
            if name in self.event_models:
                schedule = event.simulate_cnn_events(self.specs[name], self._workloads(name, 0))
                out[f"hw.{name}.event_gap"] = schedule.makespan / duet.total_cycles
        return out


class ServeLoops(Workload):
    """The three serving event loops on bursty traffic near capacity.

    One op replays one trace through ``simulate_serving``,
    ``simulate_chaos`` (15% worker faults, ``retry-hedge-breaker``) and an
    autoscaling ``FleetSimulator``.  The executors are injected and warmed
    in set-up, so nearly all op time is the event loop, batcher,
    admission and SLO code rather than the simulator.
    """

    name = "serve_loops"
    sizes = {
        "full": {"traces": 16, "requests": 10_000},
        "tiny": {"traces": 2, "requests": 1_000},
    }
    mix = ("alexnet", "lstm", "gru")
    variants = 4
    #: bursty ``rate_rps`` whose time-averaged arrival rate is about 1.1x
    #: the ~1,120 req/s that three batching workers complete at saturation.
    rate_rps = 2600.0

    def setup(self) -> None:
        *trace_seeds, self.fault_seed = _seeds(self.seed, self.size["traces"] + 1)
        self.traces = [
            loadgen.generate_trace(
                TraceConfig(
                    n_requests=self.size["requests"],
                    rate_rps=self.rate_rps,
                    arrival="bursty",
                    models=self.mix,
                    workload_variants=self.variants,
                    seed=trace_seed,
                )
            )
            for trace_seed in trace_seeds
        ]
        self.config = ServerConfig(
            workers=3,
            batch=BatchPolicy(max_batch=8),
            admission=AdmissionConfig(max_queue_depth=128),
        )
        self.fleet_config = FleetConfig(
            model_classes={"alexnet": "interactive", "lstm": "bulk", "gru": "bulk"},
            batch=BatchPolicy(max_batch=8),
            admission=AdmissionConfig(max_queue_depth=128),
            autoscaler=AutoscalerPolicy(min_servers=1, max_servers=4),
            initial_servers=1,
        )
        self.faults = bench_chaos.chaos_fault_model(0.15)
        self.policy = bench_chaos.chaos_policy("retry-hedge-breaker")
        self.executor = BatchExecutor()
        self.sharded = ShardedExecutor()
        for executor in (self.executor, self.sharded):
            for model in self.mix:
                for variant in range(self.variants):
                    for stage in SERVING_LADDER:
                        executor.sample_report(model, variant, stage)
        self.first = None  # op 0's results, the source of the serving.* counts

    def _trace(self, i: int):
        return self.traces[i % len(self.traces)]

    def prepare(self, i: int):
        trace = self._trace(i)

        def run():
            served = server.simulate_serving(trace, self.config, executor=self.executor)
            chaos = faulttol.simulate_chaos(
                trace,
                self.config,
                faults=self.faults,
                policy=self.policy,
                seed=self.fault_seed,
                executor=self.executor,
            )
            autoscaled = fleet.FleetSimulator(self.fleet_config, executor=self.sharded).run(
                trace=trace
            )
            return served, chaos, autoscaled

        return run

    def check(self, i: int, results) -> bool:
        """One terminal record per request from every loop, in request
        order; the chaos loop loses and duplicates nothing."""
        if i == 0:
            self.first = results
        trace = self._trace(i)
        one_each = all(
            len(result.records) == len(trace)
            and all(
                record.request.rid == request.rid
                and record.outcome in (COMPLETED, REJECTED, FAILED)
                for record, request in zip(result.records, trace)
            )
            for result in results
        )
        chaos = results[1].summary
        return one_each and chaos.lost == 0 and chaos.duplicates == 0

    def layer_metrics(self) -> dict:
        if self.first is None:
            return {}
        served, chaos, autoscaled = self.first
        return {
            "serving.server.rejected": served.summary.rejected,
            "serving.faulttol.retries": chaos.summary.retries,
            "serving.faulttol.hedges": chaos.summary.hedges,
            "serving.fleet.scale_outs": sum(
                event["action"] == "scale_out" for event in autoscaled.scale_events
            ),
        }


class Calibrate(Workload):
    """The dual-module offline phase: threshold tuning and evaluation.

    Set-up trains ``proxy_alexnet`` and distils its approximate modules
    (``DualizedCNN.build``).  Each op retunes every layer's threshold to
    one insensitive fraction over the fixed calibration batch, then
    evaluates a fresh batch.  Both cache tiers of ``repro.core.cache``
    start empty: repeated fractions hit the in-process memo, while the
    im2col buffers of fresh batches go through to the disk tier.
    """

    name = "calibrate"
    fractions = (0.3, 0.5, 0.7, 0.9)
    sizes = {
        "full": {"steps": 50, "batch": 32},
        "tiny": {"steps": 5, "batch": 8},
    }

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.data = GaussianMixtureImages(num_classes=8, noise=0.6, seed=self.seed)
        model = proxies.proxy_alexnet(num_classes=8, rng=rng)
        proxies.train_classifier(
            model, self.data, steps=self.size["steps"], batch_size=self.size["batch"], rng=rng
        )
        self.calibration, _ = self.data.sample(self.size["batch"], rng)
        self.dual = dualize.DualizedCNN.build(model, self.calibration, reduction=0.12, rng=rng)

    def prepare(self, i: int):
        fraction = self.fractions[i % len(self.fractions)]
        images, labels = self.data.sample(self.size["batch"], np.random.default_rng([self.seed, i]))

        def run():
            thresholds = self.dual.set_thresholds_by_fraction(fraction, self.calibration)
            accuracy, _ = self.dual.evaluate(images, labels)
            return thresholds, accuracy

        return run

    def check(self, i: int, out) -> bool:
        thresholds, accuracy = out
        return (
            0.0 <= accuracy <= 1.0
            and len(thresholds) == len(self.dual.slots)
            and all(math.isfinite(theta) for theta in thresholds)
        )


class Campaigns(Workload):
    """A pass of six whole campaigns as the CLI runs them, on two workers.

    One op runs the full serving, chaos and fleet campaigns, then the
    smoke fault-matrix, fast-vs-slow bench and dynamic campaigns, each
    writing its document; op ``i`` seeds every campaign with
    ``seed + i``.  This is the only workload that forks
    (``jobs = min(2, nproc)``), writes documents and prices early exits.
    """

    name = "campaigns"
    sizes = {"full": {"smoke": False}, "tiny": {"smoke": True}}
    jobs = min(2, os.cpu_count() or 1)
    #: ``(name, module, entry point, always smoke, seed keyword)``; entry
    #: points are looked up at call time so a traced run's wrappers apply.
    campaigns = (
        ("loadgen", bench_serving, "run_serving_bench", False, "seed"),
        ("chaos", bench_chaos, "run_chaos_bench", False, "root_seed"),
        ("fleet", bench_fleet, "run_fleet_bench", False, "root_seed"),
        ("faults", bench_faults, "run_fault_matrix", True, "root_seed"),
        ("bench", bench_harness, "run_bench", True, None),
        ("dynamic", bench_dynamic, "run_dynamic_bench", True, "root_seed"),
    )

    def setup(self) -> None:
        (self.workdir / "out").mkdir(parents=True, exist_ok=True)
        self.perf: dict = {}

    def _output(self, name: str) -> Path:
        return self.workdir / "out" / f"{name}.json"

    def prepare(self, i: int):
        calls = []
        for name, module, entry, smoke, seed_keyword in self.campaigns:
            kwargs = {
                "smoke": smoke or self.size["smoke"],
                "jobs": self.jobs,
                "output": self._output(name),
            }
            if seed_keyword is not None:
                kwargs[seed_keyword] = self.seed + i
            if name == "fleet":
                kwargs["capacity_source"] = None  # size the fleet without BENCH_serving.json
            calls.append((name, module, entry, kwargs))
        return lambda: {
            name: getattr(module, entry)(**kwargs) for name, module, entry, kwargs in calls
        }

    def check(self, i: int, documents) -> bool:
        ok = True
        for name, document in documents.items():
            self._output(name).unlink()
            self.perf.setdefault(name, []).append(document["perf"])
            ok = ok and (
                all(document.get("verdicts", {}).values())
                and document.get("all_equivalent", True)
                and document.get("all_guarded_invariants_held", True)
            )
        return ok

    def layer_metrics(self) -> dict:
        out = {
            f"bench.{name}.wall_s": float(np.mean([p["wall_s"] for p in perfs]))
            for name, perfs in self.perf.items()
        }
        perfs = [p for runs in self.perf.values() for p in runs]
        if perfs:
            passes = max(len(runs) for runs in self.perf.values())
            out["parallel.worker_efficiency"] = float(
                np.mean([p["worker_efficiency"] for p in perfs])
            )
            out["parallel.busy_s"] = sum(p["worker_busy_s"] for p in perfs) / passes
        return out


WORKLOADS = {cls.name: cls for cls in (ZooSweep, ServeLoops, Calibrate, Campaigns)}
