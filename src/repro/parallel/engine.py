"""Sharded campaign execution: deterministic multiprocess fan-out.

The experiment matrices this repo runs -- bench suites, serving
scenarios, fault campaigns -- are embarrassingly parallel across
``(suite x scenario x seed)`` cells, but every cell must stay a pure
function of its inputs so the merged document is byte-identical no
matter how many workers computed it.  This module supplies the one
pattern every driver shares:

1. **Work-list**: the driver enumerates its matrix into a list of
   :class:`CampaignTask` objects -- a stable integer ``index``, a
   picklable top-level function, and its kwargs.  Any per-task
   randomness is seeded *before* sharding via :func:`spawn_task_seeds`,
   which derives child seeds from ``np.random.SeedSequence.spawn`` --
   child ``i`` depends only on ``(root seed, i)``, never on the worker
   count or completion order.
2. **Sharding**: :func:`run_sharded` executes the list inline
   (``jobs=1``) or across a ``ProcessPoolExecutor``.  The ``fork``
   start method is preferred where available so workers inherit warmed
   module state (memo caches, imported models) instead of re-importing.
3. **Merge**: results are keyed by task index and returned sorted by
   it.  Completion order -- which *does* vary with scheduling -- never
   reaches the caller, so ``--jobs 1`` and ``--jobs N`` merge to the
   same document.

Timing is injected: the engine never reads a clock itself (DET001).
Callers that want wall-clock and worker-efficiency numbers pass a
``clock`` callable (the bench layer passes ``time.perf_counter``);
without one, all timings report zero and the run is still valid.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "CampaignTask",
    "ShardedRun",
    "spawn_task_seeds",
    "run_sharded",
    "warm_cache",
    "merge_counters",
    "preferred_start_method",
]


def spawn_task_seeds(root_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from one root seed.

    Built on ``np.random.SeedSequence.spawn``: child ``i`` is a pure
    function of ``(root_seed, i)`` -- prefix-stable (the first ``k``
    of ``spawn(n)`` equal ``spawn(k)``) and statistically independent
    of every sibling.  Workers must seed their generators from these,
    never from the parent seed (duetlint SEED001).
    """
    if n < 0:
        raise ValueError(f"seed count must be non-negative, got {n}")
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


@dataclass(frozen=True)
class CampaignTask:
    """One cell of a campaign matrix.

    Attributes:
        index: stable position in the work-list; the merge key.  Must be
            unique within one :func:`run_sharded` call.
        fn: a *top-level* (picklable) callable executed as
            ``fn(**kwargs)`` in a worker process.
        kwargs: keyword arguments; must be picklable and must carry any
            seed the task needs (derived via :func:`spawn_task_seeds`).
    """

    index: int
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


@dataclass
class ShardedRun:
    """Everything one sharded execution produced.

    Attributes:
        results: per-task results sorted by task index (order-independent
            merge: identical for any worker count).
        jobs: worker processes used (1 = inline, no pool).
        tasks: number of tasks executed.
        wall_s: wall-clock seconds for the whole run (0.0 without a
            ``clock``).
        worker_busy_s: summed per-task execution seconds across workers
            -- an estimate of the serial wall time, so
            ``worker_busy_s / wall_s`` estimates the realised speedup.
        cpu_count: ``os.cpu_count()`` on the machine that ran the shard.
        start_method: multiprocessing start method used ("inline" when
            ``jobs=1``).
        stats: summed per-task deltas of the injected ``stats`` counter
            snapshot (e.g. cache hit/miss counters), or ``{}``.
    """

    results: list
    jobs: int
    tasks: int
    wall_s: float
    worker_busy_s: float
    cpu_count: int
    start_method: str
    stats: dict = field(default_factory=dict)

    @property
    def worker_efficiency(self) -> float:
        """Busy fraction of the worker pool (1.0 = perfectly packed)."""
        if self.wall_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return self.worker_busy_s / (self.wall_s * self.jobs)

    @property
    def speedup_vs_serial_est(self) -> float | None:
        """Estimated speedup over running the same tasks serially.

        None when the machine has fewer CPUs than workers: per-task spans
        then include descheduled time, so the ratio would inflate toward
        ``jobs`` without any real speedup behind it.
        """
        if self.cpu_count < self.jobs:
            return None
        if self.wall_s <= 0.0:
            return 0.0
        return self.worker_busy_s / self.wall_s


def merge_counters(into: dict, delta: dict) -> dict:
    """Sum ``delta``'s numeric leaves into ``into`` (recursively).

    Used to aggregate per-task stats snapshots across workers.  Counter
    leaves (hits, misses, evictions) sum exactly; gauge leaves (entry
    counts) sum too -- read them as totals-across-workers, not as the
    size of any one process's cache.
    """
    for key, value in delta.items():
        if isinstance(value, dict):
            merge_counters(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            into[key] = into.get(key, 0) + value
        else:
            into[key] = value
    return into


def preferred_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Forked workers inherit warmed module state -- imported models, memo
    caches, tuned thresholds -- so the per-worker ramp-up cost is near
    zero; ``spawn`` re-imports everything and is only used where fork
    is unavailable (Windows, some macOS configurations).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _diff_counters(before: dict, after: dict) -> dict:
    """Per-leaf ``after - before`` for two counter snapshots."""
    out: dict = {}
    for key, value in after.items():
        prev = before.get(key)
        if isinstance(value, dict):
            out[key] = _diff_counters(prev if isinstance(prev, dict) else {}, value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - (prev if isinstance(prev, (int, float)) else 0)
        else:
            out[key] = value
    return out


def _execute_task(
    fn: Callable[..., Any],
    kwargs: dict,
    clock: Callable[[], float] | None,
    stats: Callable[[], dict] | None,
) -> tuple[Any, float, dict]:
    """Worker-side wrapper: run one task, measure it, snapshot stats.

    Returns ``(result, busy_seconds, stats_delta)``.  Runs in the worker
    process (or inline for ``jobs=1``); must stay a module-level
    function so it pickles under every start method.
    """
    before_stats = stats() if stats is not None else {}
    start = clock() if clock is not None else 0.0
    result = fn(**kwargs)
    busy = (clock() - start) if clock is not None else 0.0
    delta = (
        _diff_counters(before_stats, stats())
        if stats is not None
        else {}
    )
    return result, busy, delta


def warm_cache(
    tasks: list[CampaignTask],
    clock: Callable[[], float] | None = None,
    stats: Callable[[], dict] | None = None,
) -> tuple[CampaignTask | None, Any, float, dict]:
    """Pre-seed shared caches by running the lowest-index task inline.

    :func:`run_sharded` calls this in the parent process before forking
    the pool.  Executing one representative cell up front populates both
    the in-process memo caches -- inherited for free by ``fork`` workers
    -- and the persistent disk tier (:mod:`repro.core.cache`), so
    ``spawn``-start platforms do not pay cold im2col / threshold-tuning
    misses in every worker simultaneously.  The warm task is a real cell
    of the campaign: its result is merged like any other, never
    recomputed.

    Returns:
        ``(task, result, busy_seconds, stats_delta)``; ``task`` is
        ``None`` when the work-list is empty.
    """
    if not tasks:
        return None, None, 0.0, {}
    task = min(tasks, key=lambda t: t.index)
    result, busy, delta = _execute_task(task.fn, task.kwargs, clock, stats)
    return task, result, busy, delta


def run_sharded(
    tasks: list[CampaignTask],
    jobs: int = 1,
    clock: Callable[[], float] | None = None,
    stats: Callable[[], dict] | None = None,
    warm: bool = True,
) -> ShardedRun:
    """Execute a campaign work-list across ``jobs`` worker processes.

    Args:
        tasks: the work-list; indices must be unique (they key the
            merge).
        jobs: worker processes; ``1`` runs inline in this process with
            no pool (bitwise-identical results either way).
        clock: optional monotonic-seconds callable (e.g.
            ``time.perf_counter``) used for wall and per-task busy
            times; must be picklable when ``jobs > 1``.  ``None``
            reports all times as 0.0.
        stats: optional picklable zero-arg callable returning a nested
            ``{str: number | dict}`` counter snapshot; per-task deltas
            are summed into :attr:`ShardedRun.stats`.
        warm: when sharding across a pool, first run the lowest-index
            task inline via :func:`warm_cache` so shared caches (memo
            tiers under ``fork``, the persistent disk tier under
            ``spawn``) are seeded before workers start.  Results are
            identical either way; only wall-clock timing differs.

    Returns:
        A :class:`ShardedRun`; ``results[i]`` belongs to the task with
        the ``i``-th smallest index, regardless of completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    indices = [t.index for t in tasks]
    if len(set(indices)) != len(indices):
        raise ValueError("task indices must be unique (they key the merge)")

    wall_start = clock() if clock is not None else 0.0
    by_index: dict[int, Any] = {}
    busy_total = 0.0
    stat_totals: dict = {}

    if jobs == 1 or len(tasks) <= 1:
        start_method = "inline"
        for task in tasks:
            result, busy, delta = _execute_task(task.fn, task.kwargs, clock, stats)
            by_index[task.index] = result
            busy_total += busy
            merge_counters(stat_totals, delta)
        jobs_used = 1
    else:
        sharded = tasks
        if warm:
            warm_task, result, busy, delta = warm_cache(tasks, clock, stats)
            by_index[warm_task.index] = result
            busy_total += busy
            merge_counters(stat_totals, delta)
            sharded = [t for t in tasks if t.index != warm_task.index]
        start_method = preferred_start_method()
        context = multiprocessing.get_context(start_method)
        jobs_used = min(jobs, len(tasks))
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(sharded)), mp_context=context
        ) as pool:
            pending = {
                pool.submit(_execute_task, task.fn, task.kwargs, clock, stats): task
                for task in sharded
            }
            while pending:
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    task = pending.pop(future)
                    result, busy, delta = future.result()
                    by_index[task.index] = result
                    busy_total += busy
                    merge_counters(stat_totals, delta)

    wall = (clock() - wall_start) if clock is not None else 0.0
    return ShardedRun(
        results=[by_index[i] for i in sorted(by_index)],
        jobs=jobs_used,
        tasks=len(tasks),
        wall_s=wall,
        worker_busy_s=busy_total,
        cpu_count=os.cpu_count() or 1,
        start_method=start_method,
        stats=stat_totals,
    )
