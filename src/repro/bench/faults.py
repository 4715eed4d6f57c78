"""Fault-matrix bench: the reliability campaign grid, sharded and timed.

``python -m repro faults`` without ``--model`` runs the whole
``(model x campaign x guards x seed)`` reliability matrix through the
parallel campaign engine (:mod:`repro.parallel`) and writes
``BENCH_faults.json`` (schema ``duet-faults/1``):

- per cell: the degradation outcome (final ladder rung, event count),
  the fault account (per-site injections, DRAM retries/unrecoverable),
  the quality account, and the values-never-corrupted invariant verdict
  from both angles (analytical hazards + functional probe);
- globally: aggregate counts and the headline
  ``all_guarded_invariants_held`` flag -- the correctness contract of
  the whole grid (guarded cells must never corrupt a computed value;
  unguarded cells are the foil and are *expected* to).

Every simulated quantity is a pure function of ``(matrix, root seed)``:
``--jobs 1`` and ``--jobs N`` agree byte for byte on the
:func:`deterministic view <repro.bench.document.deterministic_view>`
(and on the whole file under ``--no-perf``).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.document import run_campaign, totals
from repro.models import MODEL_REGISTRY
from repro.parallel import CampaignTask, spawn_task_seeds
from repro.reliability import CAMPAIGNS, GuardSettings, run_fault_campaign

__all__ = [
    "FAULTS_SCHEMA",
    "fault_matrix",
    "run_fault_matrix",
]

#: schema identifier written into BENCH_faults.json.
FAULTS_SCHEMA = "duet-faults/1"

#: smoke grid: one compute-bound CNN and one memory-bound RNN against
#: the CI campaign and the flaky-channel campaign, guards on.
_SMOKE_MODELS = ("alexnet", "lstm")
_SMOKE_CAMPAIGNS = ("smoke", "dram-flaky")


def fault_matrix(smoke: bool = False) -> list[dict]:
    """Enumerate the campaign grid as a stable, ordered cell list.

    The enumeration order *is* the work-list order: cell ``i`` always
    receives child seed ``i`` (see :func:`run_fault_matrix`), so the
    grid's results are independent of worker count and scheduling.
    """
    if smoke:
        models: tuple[str, ...] = _SMOKE_MODELS
        campaigns: tuple[str, ...] = _SMOKE_CAMPAIGNS
        guard_modes = (True,)
        seed_indices = (0,)
    else:
        models = tuple(sorted(MODEL_REGISTRY))
        campaigns = tuple(sorted(CAMPAIGNS))
        guard_modes = (True, False)
        seed_indices = (0, 1)
    return [
        {
            "model": model,
            "campaign": campaign,
            "guards": guards,
            "seed_index": seed_index,
        }
        for model in models
        for campaign in campaigns
        for guards in guard_modes
        for seed_index in seed_indices
    ]


def _run_matrix_cell(
    model: str, campaign: str, guards: bool, seed: int, seed_index: int
) -> dict:
    """Execute one grid cell; returns its JSON-ready record.

    Top-level so the engine can pickle it into worker processes; every
    returned value is a plain Python scalar/str so the record crosses
    process boundaries and serialises without coercion.
    """
    report = run_fault_campaign(
        model=model,
        campaign=campaign,
        seed=seed,
        guards=GuardSettings(enabled=guards),
    )
    r = report.reliability
    return {
        "model": model,
        "campaign": campaign,
        "guards": guards,
        "seed_index": seed_index,
        "seed": seed,
        "invariant_held": bool(report.invariant_held),
        "initial_stage": r.initial_stage,
        "final_stage": r.final_stage,
        "degradation_events": len(r.events),
        "injected": {site: int(n) for site, n in sorted(r.total_injected.items())},
        "dram_retries": int(r.total_dram_retries),
        "dram_unrecoverable": int(r.total_dram_unrecoverable),
        "value_hazards": int(r.total_value_hazards),
        "recovery_actions": int(r.total_recovery_actions),
        "misspeculation_rate": float(r.misspeculation_rate),
        "quality_retained": float(r.quality_retained),
        "latency_ms": float(report.latency_ms),
        "probe_positions": int(report.probe.positions_checked),
        "probe_mismatches": int(report.probe.mismatches),
    }


def run_fault_matrix(
    smoke: bool = False,
    root_seed: int = 0,
    jobs: int = 1,
    output: str | Path | None = "BENCH_faults.json",
    with_perf: bool = True,
    progress=None,
) -> dict:
    """Run the campaign grid and (optionally) write ``BENCH_faults.json``.

    Args:
        smoke: CI-sized grid (4 cells) instead of the full matrix.
        root_seed: root of the per-cell seed derivation
            (``SeedSequence.spawn`` -- cell ``i``'s seed depends only on
            ``(root_seed, i)``, never on ``jobs``).
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-faults/1`` document (also written to ``output``).
    """
    cells = fault_matrix(smoke)
    seeds = spawn_task_seeds(root_seed, len(cells))
    tasks = [
        CampaignTask(fn=_run_matrix_cell, kwargs={**cell, "seed": seed})
        for cell, seed in zip(cells, seeds)
    ]

    def merge(records: list[dict]) -> dict:
        guarded = [r for r in records if r["guards"]]
        unguarded = [r for r in records if not r["guards"]]
        return {
            "schema": FAULTS_SCHEMA,
            "smoke": smoke,
            "root_seed": root_seed,
            "models": sorted({r["model"] for r in records}),
            "campaigns": sorted({r["campaign"] for r in records}),
            "cells": records,
            "aggregates": {
                "tasks": len(records),
                "guarded": len(guarded),
                "unguarded": len(unguarded),
                "guarded_invariant_violations": sum(
                    not r["invariant_held"] for r in guarded
                ),
                "unguarded_invariant_violations": sum(
                    not r["invariant_held"] for r in unguarded
                ),
                **totals(
                    records, "degradation_events", "dram_retries", "dram_unrecoverable"
                ),
            },
            "all_guarded_invariants_held": all(
                r["invariant_held"] for r in guarded
            ),
        }

    return run_campaign(
        FAULTS_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
        history_keys=("smoke", "all_guarded_invariants_held"),
    )
