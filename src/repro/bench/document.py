"""Shared bench-document plumbing: one campaign runner and its parts.

Every bench writer (``BENCH_duet.json``, ``BENCH_serving.json``,
``BENCH_faults.json``, ``BENCH_chaos.json``, ``BENCH_fleet.json``,
``BENCH_dynamic.json``) builds a task list and a merge, then hands both
to :func:`run_campaign`, which owns everything else:

- **Sharding.**  The tasks run through :func:`repro.parallel.run_sharded`
  and their records come back in task order, whatever the worker count.
- **Determinism contract.**  The simulated quantities in a document are
  byte-deterministic functions of the run's inputs; wall-clock timings
  and the cross-run ``history`` trail are not.  :func:`deterministic_view`
  strips exactly the non-deterministic keys, so two documents are
  contract-equal iff their views serialise identically --
  ``--jobs 1`` vs ``--jobs N``, or this PR vs the last.  Writers that
  pass ``--no-perf`` omit the stripped keys entirely and their files
  compare byte-identical with ``cmp``.
- **Perf block.**  :func:`perf_block` renders one
  :class:`repro.parallel.ShardedRun` into the ``perf`` object recorded
  in the documents: wall clock, summed worker-busy seconds (an estimate
  of the serial wall time), worker efficiency, the estimated speedup,
  and the cache hit/miss/evict counters aggregated across workers.
- **History + atomic emission.**  :func:`append_history` appends a
  compact ``history`` entry (carried over from the previous file when
  its schema matches) so speedups are tracked across PRs;
  :func:`write_document` validates the schema and writes atomically
  (temp file + ``os.replace``) so a killed run never leaves a torn
  document.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

from repro.analysis.schema import SchemaError, validate_schema
from repro.core.cache import cache_stats
from repro.parallel import CampaignTask, ShardedRun, run_sharded

__all__ = [
    "NONDETERMINISTIC_KEYS",
    "deterministic_view",
    "perf_block",
    "append_history",
    "write_document",
    "run_campaign",
    "totals",
]

#: document keys excluded from the determinism contract: wall-clock
#: measurements and the cross-run history trail.
NONDETERMINISTIC_KEYS = frozenset(
    {
        "perf",
        "history",
        "wall_time_s",
        "wall_times_s",
        "speedup_vs_slow_path",
        "geomean_speedup_vs_slow_path",
    }
)


def deterministic_view(node):
    """``node`` with every non-deterministic key recursively removed.

    Two runs of the same campaign agree on this view byte for byte, no
    matter the worker count, machine speed, or cache temperature.
    """
    if isinstance(node, dict):
        return {
            key: deterministic_view(value)
            for key, value in node.items()
            if key not in NONDETERMINISTIC_KEYS
        }
    if isinstance(node, list):
        return [deterministic_view(item) for item in node]
    return node


def totals(rows: list[dict], *keys: str) -> dict:
    """``{key: sum of row[key] over rows}`` for each key, in ``keys`` order."""
    return {key: sum(row[key] for row in rows) for key in keys}


def perf_block(run: ShardedRun) -> dict:
    """The ``perf`` object recorded in bench documents.

    ``worker_busy_s`` sums the per-task execution seconds across all
    workers, which estimates the serial wall time of the same work-list;
    ``speedup_vs_serial_est`` is that sum over the observed wall clock.
    Per-task seconds are wall-clock spans, so when workers timeshare
    fewer cores than ``jobs`` each span is stretched by descheduled time
    and the ratio would inflate toward ``jobs`` with no real speedup
    behind it -- on such a machine the estimate is ``None`` (JSON
    ``null``); the genuine multi-core number comes from CI runners.
    """
    return {
        "jobs": run.jobs,
        "tasks": run.tasks,
        "cpu_count": run.cpu_count,
        "start_method": run.start_method,
        "wall_s": run.wall_s,
        "worker_busy_s": run.worker_busy_s,
        "worker_efficiency": run.worker_efficiency,
        "speedup_vs_serial_est": run.speedup_vs_serial_est,
        "cache": run.stats,
    }


def append_history(
    document: dict,
    output: str | Path | None,
    schema: str,
    entry: dict,
    limit: int = 50,
) -> None:
    """Attach the cross-run ``history`` list to ``document`` in place.

    Carries over the previous file's ``history`` when ``output`` exists
    and declares a compatible schema (anything else -- missing file,
    schema bump, unparseable JSON -- restarts the trail), then appends
    ``entry`` stamped with the next ascending ``run`` ordinal.  The
    trail is capped at ``limit`` entries, oldest dropped first.
    """
    trail: list[dict] = []
    if output is not None:
        try:
            previous = json.loads(Path(output).read_text())
            validate_schema(previous, schema)
            trail = [e for e in previous.get("history", []) if isinstance(e, dict)]
        except (OSError, ValueError, SchemaError):
            trail = []
    ordinal = 1 + max((int(e.get("run", 0)) for e in trail), default=0)
    trail.append({"run": ordinal, **entry})
    document["history"] = trail[-limit:]


def write_document(document: dict, output: str | Path, schema: str) -> None:
    """Validate ``document`` against ``schema`` and write it atomically."""
    validate_schema(document, schema)
    path = Path(output)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(document, indent=2) + "\n")
    os.replace(tmp, path)


def run_campaign(
    schema: str,
    tasks: list[CampaignTask],
    merge: Callable[[list], dict],
    *,
    jobs: int,
    output: str | Path | None,
    with_perf: bool,
    progress=None,
    history_keys: tuple[str, ...] = ("smoke",),
) -> dict:
    """Shard ``tasks``, merge their records, and emit one bench document.

    Args:
        schema: the document's ``name/major`` schema string.
        tasks: the campaign's work-list; records come back in index
            order for any ``jobs``.
        merge: builds the document from the ordered records.
        jobs: worker processes for :func:`repro.parallel.run_sharded`.
        output: JSON path, or ``None`` to skip writing.
        with_perf: attach the ``perf`` block and append a ``history``
            entry; ``False`` (the CLI's ``--no-perf``) returns the
            :func:`deterministic_view` instead, so documents from
            different worker counts compare byte-identical.
        progress: optional callable invoked with each record, in task
            order, once the shard completes.
        history_keys: top-level document keys copied into the history
            entry (missing keys are skipped); every ``verdicts`` entry
            and the perf summary follow them.

    Returns:
        The document (also written to ``output``).
    """
    run = run_sharded(tasks, jobs=jobs, clock=time.perf_counter, stats=cache_stats)
    if progress is not None:
        for record in run.results:
            progress(record)
    document = merge(run.results)
    if with_perf:
        perf = perf_block(run)
        document["perf"] = perf
        entry = {key: document[key] for key in history_keys if key in document}
        entry.update(document.get("verdicts", {}))
        for key in ("tasks", "jobs", "wall_s", "worker_efficiency",
                    "speedup_vs_serial_est"):
            entry[key] = perf[key]
        append_history(document, output, schema, entry)
    else:
        document = deterministic_view(document)
    if output is not None:
        write_document(document, output, schema)
    return document
