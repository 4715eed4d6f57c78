"""Bench-suite registry: one entry per timed ``benchmarks/bench_*.py``.

Each suite names the pytest bench file it mirrors, the paper figure it
reproduces, and a *runner* -- a pure function from prepared workloads and
a :class:`~repro.sim.config.DuetConfig` to ``(fingerprint,
simulated_cycles)``.  The fingerprint collects every simulated counter
the suite produces (cycles, energy, utilisation); the harness runs each
suite once with ``fast_path=True`` and once with ``fast_path=False`` and
requires the two fingerprints to be *equal* -- the fast path's
bit-identity guarantee, checked on every bench run.

Workload preparation (sparsity sampling, switching-map generation) is
deliberately outside the timed region: both paths consume identical
prepared workloads, so the timing isolates the simulator itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.models import get_model_spec
from repro.sim import DuetAccelerator
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads

__all__ = ["BenchSuite", "SUITES", "prepare_models"]

#: models of the full Fig. 11(a) suite (matches
#: :data:`repro.experiments.architecture.ALL_MODELS`).
_ALL_MODELS = ("alexnet", "resnet18", "resnet50", "vgg16", "lstm", "gru", "gnmt")

#: Fig. 13(a) design points exercised by the bench (subset of the paper's
#: sweep; the chosen 16x32 point is always included).
_DSE_SIZES = ((8, 16), (16, 32), (32, 32))


@dataclass(frozen=True)
class BenchSuite:
    """One timed suite.

    Attributes:
        name: registry key (``--suite`` argument).
        bench_file: the pytest bench file this suite mirrors.
        figure: paper figure/table the bench reproduces.
        description: one-line summary for ``--list``.
        full_models / smoke_models: model lists for full and ``--smoke``
            runs.
        runner: ``(prepared, config) -> (fingerprint, simulated_cycles)``.
        in_smoke: whether ``--smoke`` includes this suite.
    """

    name: str
    bench_file: str
    figure: str
    description: str
    full_models: tuple[str, ...]
    smoke_models: tuple[str, ...]
    runner: Callable
    in_smoke: bool = False


def prepare_models(models: tuple[str, ...], seed: int = 0) -> dict:
    """Untimed preparation: model specs + sampled workloads per model."""
    prepared = {}
    for name in models:
        spec = get_model_spec(name)
        sparsity = SparsityModel(seed=seed)
        if spec.domain == "cnn":
            wl = cnn_workloads(spec, sparsity)
        else:
            wl = rnn_workloads(spec, sparsity)
        prepared[name] = (spec, wl)
    return prepared


def _run(spec, workloads, stage: str, config: DuetConfig):
    return DuetAccelerator(config=stage_config(stage, config)).run(
        spec, workloads=workloads
    )


def _energy_dict(energy) -> dict:
    return dataclasses.asdict(energy)


def _run_overall(prepared: dict, config: DuetConfig):
    """Fig. 11(a): DUET vs BASE cycles and energy per model."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        duet = _run(spec, wl, "DUET", config)
        base = _run(spec, wl, "BASE", config)
        fingerprint[name] = {
            "duet_cycles": duet.total_cycles,
            "base_cycles": base.total_cycles,
            "duet_energy": _energy_dict(duet.energy),
            "base_energy": _energy_dict(base.energy),
            "speedup": duet.speedup_over(base),
        }
        cycles += duet.total_cycles + base.total_cycles
    return fingerprint, cycles


def _run_stage_speedup(prepared: dict, config: DuetConfig):
    """Fig. 12(a): per-layer cycles for every evaluation stage."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        fingerprint[name] = {}
        for stage in STAGES:
            report = _run(spec, wl, stage, config)
            fingerprint[name][stage] = [l.total_cycles for l in report.layers]
            cycles += report.total_cycles
    return fingerprint, cycles


def _run_utilization(prepared: dict, config: DuetConfig):
    """Fig. 12(b): per-layer Executor MAC utilisation per stage."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        fingerprint[name] = {}
        for stage in ("OS", "BOS", "IOS", "DUET"):
            report = _run(spec, wl, stage, config)
            fingerprint[name][stage] = [l.utilization for l in report.layers]
            cycles += report.total_cycles
    return fingerprint, cycles


def _run_rnn_memory(prepared: dict, config: DuetConfig):
    """Fig. 12(d): memory vs compute cycles, BASE vs DUET, RNN suite."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        fingerprint[name] = {}
        for stage in ("BASE", "DUET"):
            report = _run(spec, wl, stage, config)
            fingerprint[name][stage] = {
                "memory_cycles": report.memory_cycles,
                "compute_cycles": report.compute_cycles,
                "total_cycles": report.total_cycles,
                "energy": _energy_dict(report.energy),
            }
            cycles += report.total_cycles
    return fingerprint, cycles


def _run_energy_breakdown(prepared: dict, config: DuetConfig):
    """Fig. 12(e)/(f): component energy for BASE and DUET."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        fingerprint[name] = {}
        for stage in ("BASE", "DUET"):
            report = _run(spec, wl, stage, config)
            fingerprint[name][stage] = _energy_dict(report.energy)
            cycles += report.total_cycles
    return fingerprint, cycles


def _run_speculator_dse(prepared: dict, config: DuetConfig):
    """Fig. 13(a): DUET speedup across Speculator systolic sizes."""
    fingerprint = {}
    cycles = 0
    for name, (spec, wl) in prepared.items():
        base = _run(spec, wl, "BASE", config)
        cycles += base.total_cycles
        fingerprint[name] = {"base_cycles": base.total_cycles}
        for rows, cols in _DSE_SIZES:
            cfg = stage_config("DUET", config.scaled_speculator(rows, cols))
            duet = DuetAccelerator(config=cfg).run(spec, workloads=wl)
            fingerprint[name][f"duet_{rows}x{cols}_cycles"] = duet.total_cycles
            cycles += duet.total_cycles
    return fingerprint, cycles


SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite(
            name="fig11a_overall",
            bench_file="benchmarks/bench_fig11a_overall.py",
            figure="Fig. 11(a)",
            description="overall DUET-vs-BASE speedup and energy",
            full_models=_ALL_MODELS,
            smoke_models=("alexnet", "lstm"),
            runner=_run_overall,
            in_smoke=True,
        ),
        BenchSuite(
            name="fig12a_stage_speedup",
            bench_file="benchmarks/bench_fig12a_stage_speedup.py",
            figure="Fig. 12(a)",
            description="layer-wise OS/BOS/IOS/DUET stage cycles",
            full_models=("alexnet", "resnet18"),
            smoke_models=("alexnet",),
            runner=_run_stage_speedup,
        ),
        BenchSuite(
            name="fig12b_utilization",
            bench_file="benchmarks/bench_fig12b_utilization.py",
            figure="Fig. 12(b)",
            description="layer-wise Executor MAC utilisation",
            full_models=("alexnet", "vgg16"),
            smoke_models=("alexnet",),
            runner=_run_utilization,
        ),
        BenchSuite(
            name="fig12d_rnn_memory",
            bench_file="benchmarks/bench_fig12d_rnn_memory.py",
            figure="Fig. 12(d)",
            description="RNN memory-vs-compute latency, BASE vs DUET",
            full_models=("lstm", "gru", "gnmt"),
            smoke_models=("lstm",),
            runner=_run_rnn_memory,
            in_smoke=True,
        ),
        BenchSuite(
            name="fig12ef_energy_breakdown",
            bench_file="benchmarks/bench_fig12ef_energy_breakdown.py",
            figure="Fig. 12(e)/(f)",
            description="component energy breakdown, BASE vs DUET",
            full_models=("alexnet", "resnet18", "lstm", "gru"),
            smoke_models=("alexnet", "lstm"),
            runner=_run_energy_breakdown,
        ),
        BenchSuite(
            name="fig13a_speculator_size",
            bench_file="benchmarks/bench_fig13a_speculator_size.py",
            figure="Fig. 13(a)",
            description="speedup vs Speculator systolic-array size",
            full_models=("alexnet", "resnet18"),
            smoke_models=("alexnet",),
            runner=_run_speculator_dse,
        ),
    )
}
