"""Dynamic bench: the selective-execution campaign behind ``BENCH_dynamic.json``.

``python -m repro dynamic`` measures the input-adaptive axis
(:mod:`repro.dynamic`) end to end, sharded across processes via
:mod:`repro.parallel`, and writes a ``duet-dynamic/1`` document:

- **Pareto sweep** -- every registered early-exit backbone is served at
  a grid of exit-confidence thresholds; each point records mean cycles,
  mean estimated accuracy drop, mean exit depth, and the exit histogram.
  The verdict ``pareto_win`` requires at least one point to achieve a
  >= :data:`PARETO_MIN_REDUCTION` cycle reduction over full depth at
  <= :data:`PARETO_MAX_DROP` estimated quality loss.  Each backbone also
  carries its per-exit price table
  (:class:`~repro.dynamic.costmodel.ExitCostModel`) and a reduced-width
  selective-subpath arm (:func:`~repro.dynamic.exits.reduced_width_spec`).
- **Static parity** -- the degeneration contract: at
  ``threshold == ALWAYS_LATE`` the dynamic executor must price every
  model bit-identically to the plain
  :class:`~repro.sim.batching.BatchExecutor` (verdict
  ``static_parity``), and raising the threshold must never shallow an
  input's exit (verdict ``threshold_monotone``, checked per input).
- **Serving scenarios** -- the fleet tier under a nominal trace with
  quality shedding armed, and one overload trace served twice: ladder
  shedding only, then with the :class:`~repro.serving.quality.QualityPolicy`
  depth axis in front of the ladder.  The verdict ``goodput_dominance``
  requires quality-aware shedding to *strictly* beat ladder-only goodput
  on the identical trace, and ``quality_bounded`` caps its mean
  estimated accuracy drop at :data:`PARETO_MAX_DROP`.

Every simulated quantity is a pure function of (grid, root seed):
``--jobs 1`` and ``--jobs N`` agree byte for byte on the
:func:`deterministic view <repro.bench.document.deterministic_view>`
(and on the whole file under ``--no-perf``).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.document import run_campaign, totals
from repro.dynamic.costmodel import ExitCostModel
from repro.dynamic.decision import ALWAYS_LATE
from repro.dynamic.executor import DynamicBatchExecutor, decision_drop
from repro.dynamic.exits import early_exit_variants, reduced_width_spec
from repro.parallel import CampaignTask, spawn_task_seeds
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.fleet import AutoscalerPolicy, FleetConfig, FleetSimulator
from repro.serving.loadgen import TraceConfig, generate_trace
from repro.serving.quality import QualityPolicy
from repro.sim.batching import BatchExecutor
from repro.sim.config import DuetConfig

__all__ = [
    "DYNAMIC_SCHEMA",
    "PARETO_MAX_DROP",
    "PARETO_MIN_REDUCTION",
    "dynamic_scenarios",
    "exit_thresholds",
    "run_dynamic_bench",
]

#: schema identifier written into BENCH_dynamic.json.
DYNAMIC_SCHEMA = "duet-dynamic/1"

#: the Pareto verdict's bar: some swept point must cut mean cycles by at
#: least this factor ...
PARETO_MIN_REDUCTION = 1.5
#: ... while losing at most this much estimated accuracy.
PARETO_MAX_DROP = 0.02

#: exit-confidence thresholds swept per backbone, ascending (the
#: monotonicity verdict checks per-input depth never decreases along
#: this axis).  1.0 is ALWAYS_LATE -- the static full-depth baseline.
_THRESHOLDS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0)

#: the selective-subpath arm's width fraction.
_SUBPATH_WIDTH = 0.5

#: inputs priced per (backbone, threshold) point.
_N_INPUTS, _N_INPUTS_SMOKE = 32, 12

#: serving mix and SLO mapping: the early-exit CNN is the interactive
#: class, the static RNN the bulk class (exits must not leak into it).
_MIX = ("resnet18", "lstm")
_MODEL_CLASSES = {"resnet18": "interactive", "lstm": "bulk"}

#: offered loads and trace lengths of the serving scenarios.
_RATE_RPS = 300.0
_OVERLOAD_RATE_RPS = 2500.0
_N_REQUESTS, _N_REQUESTS_SMOKE = 400, 150


def exit_thresholds() -> tuple:
    """The swept exit-confidence thresholds, ascending."""
    return _THRESHOLDS


def dynamic_scenarios(smoke: bool = False) -> list[dict]:
    """The serving scenarios as ordered parameter records.

    ``overload_ladder`` and ``overload_quality`` replay the *same* trace
    (same rate, length, seed offset), differing only in whether the
    quality axis is armed -- the goodput-dominance comparison is
    like-for-like.
    """
    requests = _N_REQUESTS_SMOKE if smoke else _N_REQUESTS
    return [
        {
            "name": "nominal",
            "rate_rps": _RATE_RPS,
            "requests": requests,
            "quality": True,
        },
        {
            "name": "overload_ladder",
            "rate_rps": _OVERLOAD_RATE_RPS,
            "requests": requests,
            "quality": False,
        },
        {
            "name": "overload_quality",
            "rate_rps": _OVERLOAD_RATE_RPS,
            "requests": requests,
            "quality": True,
        },
    ]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _pareto_sweep(
    model_name: str,
    thresholds: tuple,
    input_seeds: list,
    width: float,
    fast_path: bool,
) -> dict:
    """Sweep one backbone over the threshold grid; returns its record.

    Top-level so the engine can pickle it into worker processes.
    """
    hardware = DuetConfig(fast_path=fast_path)
    executor = DynamicBatchExecutor(config=hardware)
    variant = executor.exit_model_for(model_name)
    baseline = executor.execute(model_name, input_seeds, threshold=ALWAYS_LATE)
    base_cycles = _mean(r.total_cycles for r in baseline.reports)
    base_energy = _mean(r.energy.total for r in baseline.reports)

    points = []
    monotone = True
    previous_depths = None
    for threshold in thresholds:
        result = executor.execute(model_name, input_seeds, threshold=threshold)
        depths = [d.depth_fraction for d in result.decisions]
        if previous_depths is not None:
            monotone = monotone and all(
                later >= earlier
                for earlier, later in zip(previous_depths, depths)
            )
        previous_depths = depths
        histogram: dict[str, int] = {name: 0 for name in variant.exit_names}
        for decision in result.decisions:
            histogram[decision.exit_name] += 1
        mean_cycles = _mean(r.total_cycles for r in result.reports)
        points.append(
            {
                "threshold": threshold,
                "mean_cycles": mean_cycles,
                "mean_energy_pj": _mean(r.energy.total for r in result.reports),
                "cycle_reduction_vs_full": base_cycles / mean_cycles,
                "mean_estimated_drop": _mean(
                    decision_drop(model_name, d) for d in result.decisions
                ),
                "mean_exit_depth": _mean(depths),
                "early_exit_rate": _mean(
                    1.0 if d.early else 0.0 for d in result.decisions
                ),
                "exits": histogram,
            }
        )

    subpath_spec = reduced_width_spec(variant.spec, width)
    subpath_cycles = _mean(
        executor.sample_report(subpath_spec, seed).total_cycles
        for seed in input_seeds
    )
    best = max(
        (p for p in points if p["mean_estimated_drop"] <= PARETO_MAX_DROP),
        key=lambda p: p["cycle_reduction_vs_full"],
    )
    return {
        "kind": "pareto",
        "model": model_name,
        "inputs": len(input_seeds),
        "exit_table": ExitCostModel(executor).exit_table(
            variant, input_seeds[0]
        ),
        "full_mean_cycles": base_cycles,
        "full_mean_energy_pj": base_energy,
        "points": points,
        "subpath": {
            "width": width,
            "spec": subpath_spec.name,
            "mean_cycles": subpath_cycles,
            "cycle_reduction_vs_full": base_cycles / subpath_cycles,
        },
        "best": {
            "threshold": best["threshold"],
            "cycle_reduction_vs_full": best["cycle_reduction_vs_full"],
            "mean_estimated_drop": best["mean_estimated_drop"],
        },
        "pareto_win": (
            best["cycle_reduction_vs_full"] >= PARETO_MIN_REDUCTION
        ),
        "threshold_monotone": monotone,
    }


def _parity_check(models: tuple, input_seeds: list, fast_path: bool) -> dict:
    """The degeneration contract: ALWAYS_LATE prices like the static
    executor for every model, early-exit or not.

    Top-level so the engine can pickle it into worker processes.
    """
    hardware = DuetConfig(fast_path=fast_path)
    static = BatchExecutor(config=hardware)
    dynamic = DynamicBatchExecutor(config=hardware)
    records = []
    for model in models:
        expected = static.execute(model, input_seeds)
        actual = dynamic.execute(
            model, input_seeds, threshold=ALWAYS_LATE
        )
        cycles_equal = [
            a.total_cycles == e.total_cycles
            for a, e in zip(actual.reports, expected.reports)
        ]
        energy_equal = [
            a.energy.total == e.energy.total
            for a, e in zip(actual.reports, expected.reports)
        ]
        records.append(
            {
                "model": model,
                "service_cycles": actual.service_cycles,
                "service_equal": (
                    actual.service_cycles == expected.service_cycles
                ),
                "cycles_equal": all(cycles_equal),
                "energy_equal": all(energy_equal),
                "all_full_depth": all(
                    d is None or not d.early for d in actual.decisions
                ),
            }
        )
    return {
        "kind": "parity",
        "inputs": len(input_seeds),
        "models": records,
        "static_parity": all(
            r["service_equal"] and r["cycles_equal"] and r["energy_equal"]
            and r["all_full_depth"]
            for r in records
        ),
    }


def _serving_scenario(scenario: dict, trace_seed: int, fast_path: bool) -> dict:
    """Simulate one fleet scenario; returns its JSON-ready record.

    Top-level so the engine can pickle it into worker processes.
    """
    hardware = DuetConfig(fast_path=fast_path)
    quality = (
        QualityPolicy() if scenario["quality"] else QualityPolicy.disabled()
    )
    config = FleetConfig(
        model_classes=dict(_MODEL_CLASSES),
        batch=BatchPolicy(max_batch=8),
        admission=AdmissionConfig(max_queue_depth=64),
        quality=quality,
        autoscaler=AutoscalerPolicy.fixed(1),
        initial_servers=1,
        hardware=hardware,
    )
    trace = generate_trace(
        TraceConfig(
            n_requests=scenario["requests"],
            rate_rps=scenario["rate_rps"],
            models=_MIX,
            seed=trace_seed,
        )
    )
    result = FleetSimulator(config=config).run(trace=trace)
    summary = result.summary.as_dict()
    return {
        "kind": "scenario",
        "name": scenario["name"],
        "params": dict(scenario),
        "summary": summary,
        "per_class": result.per_class,
        "goodput_rps": result.goodput_rps,
        "max_queue_depth": result.max_queue_depth,
        "early_exits": summary["early_exits"],
        "mean_exit_depth": summary["mean_exit_depth"],
        "mean_quality_drop": summary["mean_quality_drop"],
    }


def run_dynamic_bench(
    smoke: bool = False,
    root_seed: int = 0,
    fast_path: bool = True,
    jobs: int = 1,
    output: str | Path | None = "BENCH_dynamic.json",
    with_perf: bool = True,
    progress=None,
) -> dict:
    """Run the dynamic campaign and (optionally) write ``BENCH_dynamic.json``.

    Args:
        smoke: CI-sized grid (12 inputs, 150-request traces) instead of
            the full campaign (32 inputs, 400-request traces).
        root_seed: campaign root; input workload seeds are its
            ``SeedSequence.spawn`` children and the serving traces are
            seeded with it directly (both independent of ``jobs``).
        fast_path: simulate on the vectorized fast path (True) or the
            per-event slow-path oracle (False).
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-dynamic/1`` document (also written to ``output``).
    """
    models = early_exit_variants()
    n_inputs = _N_INPUTS_SMOKE if smoke else _N_INPUTS
    input_seeds = [int(seed) for seed in spawn_task_seeds(root_seed, n_inputs)]
    scenarios = dynamic_scenarios(smoke)
    tasks = [
        CampaignTask(
            fn=_pareto_sweep,
            kwargs={
                "model_name": model,
                "thresholds": _THRESHOLDS,
                "input_seeds": input_seeds,
                "width": _SUBPATH_WIDTH,
                "fast_path": fast_path,
            },
        )
        for model in models
    ]
    tasks.append(
        CampaignTask(
            fn=_parity_check,
            kwargs={
                # the static RNN rides along: it must pass through the
                # dynamic executor untouched
                "models": models + ("lstm",),
                "input_seeds": input_seeds,
                "fast_path": fast_path,
            },
        )
    )
    tasks.extend(
        CampaignTask(
            fn=_serving_scenario,
            kwargs={
                "scenario": scenario,
                "trace_seed": root_seed,
                "fast_path": fast_path,
            },
        )
        for scenario in scenarios
    )

    def merge(records: list[dict]) -> dict:
        pareto = [r for r in records if r["kind"] == "pareto"]
        parity = next(r for r in records if r["kind"] == "parity")
        served = [r for r in records if r["kind"] == "scenario"]
        by_name = {r["name"]: r for r in served}
        ladder = by_name["overload_ladder"]
        quality = by_name["overload_quality"]
        best = max(pareto, key=lambda r: r["best"]["cycle_reduction_vs_full"])
        return {
            "schema": DYNAMIC_SCHEMA,
            "smoke": smoke,
            "root_seed": root_seed,
            "fast_path": fast_path,
            "thresholds": list(_THRESHOLDS),
            "inputs": n_inputs,
            "pareto": pareto,
            "parity": parity,
            "scenarios": served,
            "aggregates": {
                "tasks": len(records),
                "models": len(pareto),
                "points": sum(len(r["points"]) for r in pareto),
                **totals([r["summary"] for r in served], "offered", "completed"),
                **totals(served, "early_exits"),
            },
            "best_tradeoff": {
                "model": best["model"],
                **best["best"],
            },
            "dominance": {
                "ladder_goodput_rps": ladder["goodput_rps"],
                "quality_goodput_rps": quality["goodput_rps"],
                "gain": (
                    quality["goodput_rps"] / ladder["goodput_rps"]
                    if ladder["goodput_rps"] > 0
                    else None
                ),
                "quality_mean_drop": quality["mean_quality_drop"],
                "quality_mean_exit_depth": quality["mean_exit_depth"],
            },
            "verdicts": {
                "pareto_win": any(r["pareto_win"] for r in pareto),
                "threshold_monotone": all(r["threshold_monotone"] for r in pareto),
                "static_parity": parity["static_parity"],
                "goodput_dominance": (
                    quality["goodput_rps"] > ladder["goodput_rps"]
                ),
                "quality_bounded": (
                    quality["mean_quality_drop"] <= PARETO_MAX_DROP
                ),
            },
        }

    return run_campaign(
        DYNAMIC_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
    )
