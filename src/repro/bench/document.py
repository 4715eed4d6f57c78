"""Shared bench-document plumbing: determinism views, history, emission.

Every bench writer (``BENCH_duet.json``, ``BENCH_serving.json``,
``BENCH_faults.json``) shares three concerns this module centralises:

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
- **History + atomic emission.**  :func:`write_document` appends a
  compact ``history`` entry (carried over from the previous file when
  its schema matches) so speedups are tracked across PRs, validates the
  schema, and writes atomically (temp file + ``os.replace``) so a
  killed run never leaves a torn document.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis.schema import SchemaError, validate_schema
from repro.parallel import ShardedRun

__all__ = [
    "NONDETERMINISTIC_KEYS",
    "deterministic_view",
    "perf_block",
    "history_entry",
    "append_history",
    "write_document",
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


def history_entry(document: dict, keys: tuple[str, ...]) -> dict:
    """A compact trajectory record: the named top-level keys, if present."""
    entry = {key: document[key] for key in keys if key in document}
    return entry


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
