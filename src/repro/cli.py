"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-models``           registered benchmark models.
- ``simulate``              run one model on one configuration.
- ``stages``                the OS/BOS/IOS/DUET technique breakdown.
- ``compare``               DUET vs the SOTA comparison accelerators.
- ``area``                  the Table-I area breakdown.
- ``faults``                run one fault campaign (``--model``) and
  print the degradation report, or the whole sharded campaign matrix
  (no ``--model``) and write ``BENCH_faults.json``.
- ``bench``                 time the fast path against the slow-path
  oracle and write ``BENCH_duet.json``.
- ``serve``                 simulate the serving front end on one seeded
  arrival trace and print the SLO report.
- ``loadgen``               run the serving scenario campaign and write
  ``BENCH_serving.json``.
- ``chaos``                 run the fault-tolerant serving sweep (fault
  rate x recovery policy) and write ``BENCH_chaos.json``.
- ``fleet``                 run the fleet-scale sharded-serving campaign
  (sharding, SLO classes, autoscaling, closed loop) and write
  ``BENCH_fleet.json``.
- ``dynamic``               run the selective-execution campaign
  (early-exit Pareto sweep, static parity, quality-vs-ladder overload
  serving) and write ``BENCH_dynamic.json``.
- ``lint``                  run duetlint, the project-specific static
  analysis (exit 0 clean, 1 findings, 2 usage error).

Every command prints a plain-text table; all simulations are seeded and
deterministic.  Usage errors (unknown model, incompatible flags) exit
with status 2 and a one-line message on stderr -- never a traceback.
A campaign whose document fails a check exits with status 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.analysis.cli import cmd_lint, configure_parser as configure_lint_parser
from repro.baselines import cnvlutin, eyeriss, predict, predict_cnvlutin, snapea
from repro.bench import (
    SUITES,
    run_bench,
    run_chaos_bench,
    run_dynamic_bench,
    run_fault_matrix,
    run_fleet_bench,
    run_serving_bench,
)
from repro.models import MODEL_REGISTRY, get_model_spec
from repro.reliability import CAMPAIGNS, GuardSettings, run_fault_campaign
from repro.reporting import format_percent
from repro.serving import (
    ARRIVAL_PROCESSES,
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    TraceConfig,
    simulate_serving,
)
from repro.sim import AreaModel, DuetAccelerator
from repro.sim.config import STAGES
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads

__all__ = ["main", "build_parser", "CliError"]


class CliError(Exception):
    """A usage error the CLI reports as ``error: <message>`` (exit 2)."""


def _add_campaign_flags(
    parser: argparse.ArgumentParser,
    output: str,
    *,
    seed: bool = True,
    slow_path: bool = True,
) -> None:
    """Add the flags every campaign subcommand shares to ``parser``."""
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized campaign instead of the full one",
    )
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="campaign root seed")
    if slow_path:
        parser.add_argument(
            "--slow-path", action="store_true",
            help="simulate on the per-event slow-path oracle instead",
        )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (simulated results identical for any N)",
    )
    parser.add_argument(
        "--output", default=output,
        help=f"result path (default {output} at the repo root)",
    )
    parser.add_argument(
        "--no-perf", action="store_true",
        help=(
            "omit wall-clock fields, the perf block and history so "
            "documents compare byte-identical across worker counts"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DUET dual-module accelerator simulator (MICRO 2020 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list registered benchmark models")

    p_sim = sub.add_parser("simulate", help="simulate one model")
    p_sim.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_sim.add_argument("--stage", default="DUET", choices=STAGES)
    p_sim.add_argument(
        "--include-fc", action="store_true",
        help="include FC classifier layers (CNN models)",
    )
    p_sim.add_argument("--seed", type=int, default=0, help="sparsity seed")

    p_stages = sub.add_parser("stages", help="OS/BOS/IOS/DUET breakdown")
    p_stages.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_stages.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser("compare", help="DUET vs SOTA accelerators")
    p_cmp.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_cmp.add_argument("--seed", type=int, default=0)

    sub.add_parser("area", help="Table-I area breakdown")

    p_faults = sub.add_parser(
        "faults",
        help=(
            "run one fault campaign (--model) or the whole sharded "
            "matrix (no --model), writing BENCH_faults.json"
        ),
        description=(
            "--smoke, --jobs, --output and --no-perf apply to the matrix "
            "(no --model) only."
        ),
    )
    p_faults.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY), default=None,
        help="single-campaign mode: the model to run (omit for the matrix)",
    )
    p_faults.add_argument(
        "--campaign",
        default="smoke",
        choices=sorted(CAMPAIGNS),
        help="built-in fault campaign to apply (single-campaign mode)",
    )
    _add_campaign_flags(p_faults, "BENCH_faults.json", slow_path=False)
    p_faults.add_argument(
        "--stage", default="DUET", choices=STAGES,
        help="degradation-ladder rung the run starts at",
    )
    p_faults.add_argument(
        "--no-guards", action="store_true",
        help="disable the online guards (show the unprotected failure mode)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="time the fast path vs the slow-path oracle, write BENCH_duet.json",
    )
    _add_campaign_flags(p_bench, "BENCH_duet.json", seed=False, slow_path=False)
    p_bench.add_argument(
        "--suite", action="append", choices=sorted(SUITES), default=None,
        help="run only the named suite (repeatable)",
    )
    p_bench.add_argument(
        "--warmup", type=int, default=1,
        help="untimed runs per path before timing (default 1)",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=3,
        help="timed runs per path; the minimum is reported (default 3)",
    )
    p_bench.add_argument(
        "--list", action="store_true", dest="list_suites",
        help="list registered suites and exit",
    )

    p_serve = sub.add_parser(
        "serve",
        help="simulate the serving front end on one seeded arrival trace",
    )
    p_serve.add_argument(
        "--model", action="append", choices=sorted(MODEL_REGISTRY), default=None,
        help="traffic-mix model (repeatable; default alexnet + lstm)",
    )
    p_serve.add_argument("--requests", type=int, default=1000, help="trace length")
    p_serve.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in requests per simulated second",
    )
    p_serve.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PROCESSES,
        help="arrival process",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="trace seed")
    p_serve.add_argument(
        "--workers", type=int, default=2, help="simulated accelerator workers"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8, help="dynamic-batching cap (1 = off)"
    )
    p_serve.add_argument(
        "--max-wait-us", type=float, default=200.0,
        help="microbatch deadline in simulated microseconds",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission queue bound (arrivals beyond it are rejected)",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, default=None,
        help="token-bucket sustained admit rate in req/s (default: off)",
    )
    p_serve.add_argument(
        "--variants", type=int, default=4,
        help="distinct workload samples circulating in the traffic",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="run the serving scenario campaign, write BENCH_serving.json",
    )
    _add_campaign_flags(p_load, "BENCH_serving.json")
    p_load.add_argument(
        "--workers", type=int, default=2, help="simulated accelerator workers"
    )
    p_load.add_argument(
        "--max-batch", type=int, default=8,
        help="dynamic-batching cap of the batched arms",
    )
    p_load.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PROCESSES,
        help="arrival process of every scenario trace",
    )
    p_load.add_argument(
        "--scale", type=float, default=1.0,
        help="request-count multiplier (floor 20 per scenario)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help=(
            "run the fault-tolerant serving sweep (fault rate x recovery "
            "policy), write BENCH_chaos.json"
        ),
    )
    _add_campaign_flags(p_chaos, "BENCH_chaos.json")
    p_chaos.add_argument(
        "--workers", type=int, default=3, help="simulated accelerators in the fleet"
    )

    p_fleet = sub.add_parser(
        "fleet",
        help=(
            "run the fleet-scale sharded-serving campaign (sharding, SLO "
            "classes, autoscaling, closed loop), write BENCH_fleet.json"
        ),
    )
    _add_campaign_flags(p_fleet, "BENCH_fleet.json")
    p_fleet.add_argument(
        "--capacity-source", default="BENCH_serving.json",
        help=(
            "measured BENCH_serving.json feeding placement decisions "
            "(default BENCH_serving.json; missing file uses the recorded "
            "fallback capacity)"
        ),
    )

    p_dynamic = sub.add_parser(
        "dynamic",
        help=(
            "run the selective-execution campaign (early-exit Pareto "
            "sweep, static parity, quality-vs-ladder overload serving), "
            "write BENCH_dynamic.json"
        ),
    )
    _add_campaign_flags(p_dynamic, "BENCH_dynamic.json")

    p_lint = sub.add_parser(
        "lint",
        help="run duetlint, the project-specific static analysis",
    )
    configure_lint_parser(p_lint)
    return parser


def _workloads_for(spec, seed: int, include_fc: bool = False):
    sparsity = SparsityModel(seed=seed)
    if spec.domain == "cnn":
        return cnn_workloads(spec, sparsity, include_fc=include_fc)
    return rnn_workloads(spec, sparsity)


def _cmd_list_models(_args, out) -> int:
    for name in sorted(MODEL_REGISTRY):
        spec = get_model_spec(name)
        out.write(
            f"{name:10s} {spec.domain:4s} {len(spec.layers):3d} layers "
            f"{spec.total_macs / 1e9:6.2f} GMACs "
            f"{spec.total_weight_elements / 1e6:7.1f} M weights\n"
        )
    return 0


def _cmd_simulate(args, out) -> int:
    spec = get_model_spec(args.model)
    if args.include_fc and spec.domain != "cnn":
        raise CliError(
            f"--include-fc applies to CNN models; {args.model} is an RNN"
        )
    workloads = _workloads_for(spec, args.seed, args.include_fc)
    report = DuetAccelerator(stage=args.stage).run(spec, workloads=workloads)
    out.write(f"{args.model} on {args.stage}:\n")
    out.write(
        f"{'layer':>18s} {'cycles':>12s} {'exec':>10s} {'spec':>8s} "
        f"{'mem':>10s} {'util':>5s}\n"
    )
    for layer in report.layers:
        out.write(
            f"{layer.name:>18s} {layer.total_cycles:12,} "
            f"{layer.executor_cycles:10,} {layer.speculator_cycles:8,} "
            f"{layer.memory_cycles:10,} {layer.utilization:5.2f}\n"
        )
    out.write(
        f"total: {report.total_cycles:,} cycles = {report.latency_ms:.3f} ms, "
        f"energy {report.energy.total / 1e9:.3f} (norm. units)\n"
    )
    return 0


def _cmd_stages(args, out) -> int:
    spec = get_model_spec(args.model)
    workloads = _workloads_for(spec, args.seed)
    base = None
    out.write(f"{args.model}: technique breakdown (paper Fig. 12a)\n")
    for stage in STAGES:
        report = DuetAccelerator(stage=stage).run(spec, workloads=workloads)
        if stage == "BASE":
            base = report
        out.write(
            f"  {stage:5s} {report.latency_ms:8.3f} ms  "
            f"speedup {report.speedup_over(report) if base is None else base.total_cycles / report.total_cycles:5.2f}x  "
            f"util {report.mean_utilization:5.2f}\n"
        )
    return 0


def _cmd_compare(args, out) -> int:
    spec = get_model_spec(args.model)
    if spec.domain != "cnn":
        raise CliError(
            "compare supports CNN models only (Fig. 11b is CNN-only)"
        )
    workloads = _workloads_for(spec, args.seed)
    duet = DuetAccelerator(stage="DUET").run(spec, workloads=workloads)
    out.write(f"{args.model}: normalised to DUET = 1.0 (paper Fig. 11b)\n")
    out.write(f"{'design':>18s} {'latency':>8s} {'energy':>8s} {'EDP':>8s}\n")
    for name, factory in (
        ("eyeriss", eyeriss),
        ("cnvlutin", cnvlutin),
        ("snapea", snapea),
        ("predict", predict),
        ("predict+cnvlutin", predict_cnvlutin),
    ):
        r = factory().run(spec, workloads)
        out.write(
            f"{name:>18s} {r.total_cycles / duet.total_cycles:7.2f}x "
            f"{r.energy.total / duet.energy.total:7.2f}x "
            f"{r.edp() / duet.edp():7.2f}x\n"
        )
    return 0


def _cmd_area(_args, out) -> int:
    breakdown = AreaModel().breakdown()
    out.write("DUET area breakdown (paper Table I)\n")
    for name, mm2, frac in breakdown.as_rows():
        out.write(f"{name:>30s} {mm2:8.3f} mm^2 {frac:6.1%}\n")
    out.write(
        f"{'Executor total':>30s} {breakdown.executor_total:8.3f} mm^2 "
        f"{breakdown.fraction(breakdown.executor_total):6.1%}\n"
    )
    out.write(
        f"{'Speculator total':>30s} {breakdown.speculator_total:8.3f} mm^2 "
        f"{breakdown.fraction(breakdown.speculator_total):6.1%}\n"
    )
    return 0


def _ms(value) -> str:
    """A latency column: milliseconds, or ``n/a`` when nothing completed."""
    return f"{value:9.3f}" if value is not None else f"{'n/a':>9s}"


def _run_campaign(args, out, run, header: str, row, footer, **kwargs) -> int:
    """Run one campaign subcommand end to end; returns its exit code.

    Validates the shared flags before writing anything, prints
    ``header``, streams each record through ``row``, hands the document
    to ``footer``, and exits 1 if any of the document's checks failed.
    """
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    directory = Path(args.output).parent
    if not directory.is_dir():
        raise CliError(f"--output directory does not exist: {directory}")
    out.write(header)
    document = run(
        jobs=args.jobs,
        output=args.output,
        with_perf=not args.no_perf,
        progress=row,
        **kwargs,
    )
    footer(document)
    checks = list(document.get("verdicts", {}).values()) + [
        document[key]
        for key in ("all_equivalent", "all_guarded_invariants_held")
        if key in document
    ]
    return 0 if all(checks) else 1


def _cmd_faults(args, out) -> int:
    if args.model is not None:
        report = run_fault_campaign(
            model=args.model,
            campaign=args.campaign,
            seed=args.seed,
            guards=GuardSettings(enabled=not args.no_guards),
            initial_stage=args.stage,
        )
        out.write(report.format() + "\n")
        return 0
    if args.no_guards:
        raise CliError(
            "--no-guards needs --model; the matrix runs guarded and "
            "unguarded arms itself"
        )

    def row(record):
        out.write(
            f"{record['model']:>10s} {record['campaign']:>16s} "
            f"{'on' if record['guards'] else 'off':>6s} "
            f"{record['final_stage']:>6s} {record['degradation_events']:6d} "
            f"{record['dram_retries']:8d} "
            f"{'PASS' if record['invariant_held'] else 'VIOLATED':>9s}\n"
        )

    def footer(document):
        agg = document["aggregates"]
        perf = document.get("perf")
        if perf is not None:
            speedup = perf["speedup_vs_serial_est"]
            speedup_text = "n/a" if speedup is None else f"~{speedup:.2f}x"
            out.write(
                f"{agg['tasks']} cells in {perf['wall_s']:.2f}s wall "
                f"({args.jobs} job(s), {perf['worker_efficiency']:.0%} worker "
                f"efficiency, {speedup_text} vs serial "
                f"est.); results in {args.output}\n"
            )
        else:
            out.write(f"{agg['tasks']} cells; results in {args.output}\n")
        if not document["all_guarded_invariants_held"]:
            out.write(
                f"values-never-corrupted invariant: VIOLATED in "
                f"{agg['guarded_invariant_violations']} guarded cell(s)\n"
            )
            return
        out.write(
            f"values-never-corrupted invariant: PASS across "
            f"{agg['guarded']} guarded cells "
            f"({agg['unguarded_invariant_violations']}/{agg['unguarded']} "
            "unguarded foils corrupted, as expected)\n"
        )

    return _run_campaign(
        args, out, run_fault_matrix,
        f"{'model':>10s} {'campaign':>16s} {'guards':>6s} {'stage':>6s} "
        f"{'events':>6s} {'retries':>8s} {'invariant':>9s}\n",
        row, footer,
        smoke=args.smoke,
        root_seed=args.seed,
    )


def _cmd_bench(args, out) -> int:
    if args.list_suites:
        for name in sorted(SUITES):
            suite = SUITES[name]
            marker = "smoke+full" if suite.in_smoke else "full"
            out.write(
                f"{name:26s} {suite.figure:14s} [{marker}] {suite.description}\n"
            )
        return 0

    def row(record):
        out.write(
            f"{record['name']:>26s} {record['wall_time_s']['fast']:9.3f} "
            f"{record['wall_time_s']['slow']:9.3f} "
            f"{record['speedup_vs_slow_path']:7.1f}x "
            f"{record['equivalence']:>13s}\n"
        )

    def footer(document):
        geomean = document.get("geomean_speedup_vs_slow_path")
        if geomean is not None:
            out.write(
                f"geomean speedup {geomean:.1f}x over the slow-path oracle; "
                f"results in {args.output}\n"
            )
        else:
            out.write(f"results in {args.output}\n")
        if not document["all_equivalent"]:
            out.write(
                "fast path diverged from the slow-path oracle "
                "(see the MISMATCH suites above)\n"
            )

    return _run_campaign(
        args, out, run_bench,
        f"{'suite':>26s} {'fast s':>9s} {'slow s':>9s} {'speedup':>8s} "
        f"{'equivalence':>13s}\n",
        row, footer,
        suite_names=args.suite,
        smoke=args.smoke,
        warmup=args.warmup,
        repeat=args.repeat,
    )


def _cmd_serve(args, out) -> int:
    if args.requests < 1:
        raise CliError(f"--requests must be >= 1, got {args.requests}")
    if args.rate <= 0:
        raise CliError(f"--rate must be positive, got {args.rate}")
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.max_batch < 1:
        raise CliError(f"--max-batch must be >= 1, got {args.max_batch}")
    models = tuple(args.model) if args.model else ("alexnet", "lstm")
    trace = TraceConfig(
        n_requests=args.requests,
        rate_rps=args.rate,
        arrival=args.arrival,
        models=models,
        workload_variants=args.variants,
        seed=args.seed,
    )
    server = ServerConfig(
        workers=args.workers,
        batch=BatchPolicy(max_batch=args.max_batch, max_wait_us=args.max_wait_us),
        admission=AdmissionConfig(
            max_queue_depth=args.queue_depth, rate_limit_rps=args.rate_limit
        ),
    )
    result = simulate_serving(trace, config=server)
    out.write(
        f"serving {', '.join(models)} at {args.rate:g} req/s ({args.arrival}, "
        f"seed {args.seed}): {args.workers} worker(s), max batch "
        f"{args.max_batch}, queue bound {args.queue_depth}\n"
    )
    out.write(result.summary.format() + "\n")
    out.write(
        f"  queue peak : {result.max_queue_depth} pending "
        f"(bound {args.queue_depth})\n"
    )
    return 0


def _cmd_loadgen(args, out) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.max_batch < 1:
        raise CliError(f"--max-batch must be >= 1, got {args.max_batch}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise CliError(f"--scale must be finite and positive, got {args.scale}")

    def row(record):
        summary = record["summary"]
        latency = summary["latency_ms"]
        out.write(
            f"{record['name']:>18s} {record['requests']:9d} "
            f"{_ms(latency['p50'])} {_ms(latency['p95'])} {_ms(latency['p99'])} "
            f"{summary['throughput_rps']:8.1f} "
            f"{format_percent(summary['reject_rate']):>7s} "
            f"{summary['degraded']:9d}\n"
        )

    def footer(document):
        batching = document["batching"]
        overload = next(
            s["summary"] for s in document["scenarios"] if s["name"] == "overload"
        )
        stages = "  ".join(
            f"{stage}={count}" for stage, count in overload["stage_counts"].items()
        )
        out.write(f"overload stage counts: {stages}\n")
        out.write(
            f"dynamic batching (max {batching['max_batch']}): "
            f"{batching['batched_throughput_rps']:.1f} req/s vs "
            f"{batching['batch1_throughput_rps']:.1f} req/s unbatched = "
            f"{batching['speedup']:.2f}x throughput; results in {args.output}\n"
        )

    return _run_campaign(
        args, out, run_serving_bench,
        f"{'scenario':>18s} {'requests':>9s} {'p50 ms':>9s} {'p95 ms':>9s} "
        f"{'p99 ms':>9s} {'req/s':>8s} {'reject':>7s} {'degraded':>9s}\n",
        row, footer,
        smoke=args.smoke,
        seed=args.seed,
        workers=args.workers,
        max_batch=args.max_batch,
        arrival=args.arrival,
        scale=args.scale,
        fast_path=not args.slow_path,
    )


def _cmd_chaos(args, out) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")

    def row(record):
        summary = record["summary"]
        out.write(
            f"{record['policy']:>22s} {record['fault_rate']:6.2f} "
            f"{summary['completed']:5d} {summary['failed']:5d} "
            f"{summary['rejected']:5d} {summary['goodput_rps']:8.1f} "
            f"{_ms(summary['latency_ms']['p99'])} {summary['retries']:6d} "
            f"{summary['hedges']:6d} {summary['breaker_opens']:6d} "
            f"{summary['evictions']:6d} {summary['lost']:5d} "
            f"{summary['duplicates']:4d}\n"
        )

    def footer(document):
        verdicts = document["verdicts"]
        dominance = document["dominance"]
        out.write(
            f"conservation: zero_lost={verdicts['zero_lost']} "
            f"zero_duplicates={verdicts['zero_duplicates']}\n"
        )
        out.write(
            f"dominance at fault rate {dominance['fault_rate']}: "
            f"{dominance['full_stack_policy']} "
            f"{dominance['full_stack_goodput_rps']:.1f} req/s vs "
            f"{dominance['baseline_policy']} "
            f"{dominance['baseline_goodput_rps']:.1f} req/s "
            f"({'holds' if verdicts['dominance'] else 'FAILS'}); "
            f"results in {args.output}\n"
        )

    return _run_campaign(
        args, out, run_chaos_bench,
        f"{'policy':>22s} {'fault':>6s} {'done':>5s} {'fail':>5s} {'rej':>5s} "
        f"{'req/s':>8s} {'p99 ms':>9s} {'retry':>6s} {'hedge':>6s} "
        f"{'opens':>6s} {'evict':>6s} {'lost':>5s} {'dup':>4s}\n",
        row, footer,
        smoke=args.smoke,
        root_seed=args.seed,
        workers=args.workers,
        fast_path=not args.slow_path,
    )


def _cmd_fleet(args, out) -> int:
    def row(record):
        summary = record["summary"]
        out.write(
            f"{record['name']:>20s} {summary['offered']:8d} "
            f"{summary['completed']:5d} {summary['rejected']:5d} "
            f"{record['goodput_rps']:8.1f} {_ms(summary['latency_ms']['p95'])} "
            f"{record['peak_servers']:5d} {record['scale_outs']:4d} "
            f"{record['scale_ins']:4d} {record['shard_utilization']:5.2f}\n"
        )

    def footer(document):
        feed = document["capacity_feed"]
        out.write(
            f"capacity feed: {feed['server_capacity_rps']:.1f} req/s per server "
            f"from {feed['source']} -> {feed['nominal_servers']} server(s) at "
            f"{feed['nominal_rate_rps']:g} req/s offered\n"
        )
        verdicts = document["verdicts"]
        dominance = document["dominance"]
        speedup = dominance["speedup"]
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "n/a"
        out.write(
            f"goodput dominance: sharded fleet "
            f"{dominance['sharded_goodput_rps']:.1f} req/s vs single chip "
            f"{dominance['baseline_goodput_rps']:.1f} req/s ({speedup_text}, "
            f"{'holds' if verdicts['goodput_dominance'] else 'FAILS'})\n"
        )
        out.write(
            f"autoscale out observed: {verdicts['autoscale_out_observed']}  "
            f"closed loop conserved: {verdicts['closed_loop_conserved']}; "
            f"results in {args.output}\n"
        )

    return _run_campaign(
        args, out, run_fleet_bench,
        f"{'scenario':>20s} {'offered':>8s} {'done':>5s} {'rej':>5s} "
        f"{'good/s':>8s} {'p95 ms':>9s} {'peak':>5s} {'out':>4s} {'in':>4s} "
        f"{'util':>5s}\n",
        row, footer,
        smoke=args.smoke,
        root_seed=args.seed,
        fast_path=not args.slow_path,
        capacity_source=args.capacity_source,
    )


def _cmd_dynamic(args, out) -> int:
    def row(record):
        if record["kind"] == "pareto":
            best = record["best"]
            out.write(
                f"{record['model']:>20s} "
                f"{'tau=' + format(best['threshold'], 'g'):>24s} "
                f"{best['cycle_reduction_vs_full']:9.2f}x "
                f"{format_percent(best['mean_estimated_drop']):>7s} "
                f"{'PASS' if record['pareto_win'] else 'miss':>8s}\n"
            )
        elif record["kind"] == "parity":
            models = ", ".join(m["model"] for m in record["models"])
            out.write(
                f"{'static parity':>20s} {models:>24s} {'':>10s} {'':>7s} "
                f"{'PASS' if record['static_parity'] else 'FAIL':>8s}\n"
            )
        else:
            summary = record["summary"]
            done = f"{summary['completed']}/{summary['offered']} done"
            out.write(
                f"{record['name']:>20s} {done:>24s} "
                f"{record['goodput_rps']:9.1f}r "
                f"{format_percent(record['mean_quality_drop']):>7s} "
                f"{'':>8s}\n"
            )

    def footer(document):
        best = document["best_tradeoff"]
        out.write(
            f"best tradeoff: {best['model']} at threshold "
            f"{best['threshold']:g} -> {best['cycle_reduction_vs_full']:.2f}x "
            f"cycles at {format_percent(best['mean_estimated_drop'])} estimated "
            f"accuracy drop\n"
        )
        verdicts = document["verdicts"]
        dominance = document["dominance"]
        gain = dominance["gain"]
        gain_text = f"{gain:.2f}x" if gain is not None else "n/a"
        out.write(
            f"overload goodput: quality-aware "
            f"{dominance['quality_goodput_rps']:.1f} req/s vs ladder-only "
            f"{dominance['ladder_goodput_rps']:.1f} req/s ({gain_text}, "
            f"{'holds' if verdicts['goodput_dominance'] else 'FAILS'}) at "
            f"{format_percent(dominance['quality_mean_drop'])} mean estimated "
            f"drop\n"
        )
        out.write(
            f"pareto win: {verdicts['pareto_win']}  "
            f"static parity: {verdicts['static_parity']}  "
            f"threshold monotone: {verdicts['threshold_monotone']}  "
            f"quality bounded: {verdicts['quality_bounded']}; "
            f"results in {args.output}\n"
        )

    return _run_campaign(
        args, out, run_dynamic_bench,
        f"{'task':>20s} {'detail':>24s} {'best/good':>10s} {'drop':>7s} "
        f"{'verdict':>8s}\n",
        row, footer,
        smoke=args.smoke,
        root_seed=args.seed,
        fast_path=not args.slow_path,
    )


_COMMANDS = {
    "list-models": _cmd_list_models,
    "simulate": _cmd_simulate,
    "stages": _cmd_stages,
    "compare": _cmd_compare,
    "area": _cmd_area,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "dynamic": _cmd_dynamic,
    "lint": cmd_lint,
}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """CLI entry point; returns the process exit code.

    Usage errors -- a :class:`CliError` from a command, or a bad value
    that slipped past argparse (``ValueError``/``KeyError`` from the
    library layer) -- print one ``error: ...`` line on ``err`` and return
    status 2; they never escape as tracebacks.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except CliError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        err.write(f"error: {message}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
