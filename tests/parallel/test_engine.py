"""Tests for the sharded campaign engine (:mod:`repro.parallel`).

The determinism contract under test: results come back in work-list
order, child seeds depend only on ``(root seed, position)``, and the
whole run is a pure function of the work-list -- never of the worker
count or the completion order.
"""

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    CampaignTask,
    ShardedRun,
    merge_counters,
    preferred_start_method,
    run_sharded,
    spawn_task_seeds,
    warm_cache,
)

# ---------------------------------------------------------------------------
# module-level task functions: must be picklable under every start method


def _square(x):
    return x * x


def _tag(index, seed):
    return {"index": index, "seed": seed}


def _finish(x, delay_s):
    """Return ``x`` and the moment it finished, after ``delay_s``."""
    time.sleep(delay_s)
    return x, time.monotonic()


_CALLS = {"n": 0}


def _counting_task():
    _CALLS["n"] += 1
    return _CALLS["n"]


def _calls_snapshot():
    return {"calls": _CALLS["n"], "nested": {"calls": _CALLS["n"]}}


class TestSpawnTaskSeeds:
    def test_prefix_stable(self):
        """Child ``i`` depends only on ``(root, i)``: growing the matrix
        never reshuffles the seeds of existing cells."""
        assert spawn_task_seeds(0, 8)[:3] == spawn_task_seeds(0, 3)
        assert spawn_task_seeds(7, 16)[:5] == spawn_task_seeds(7, 5)

    def test_deterministic_and_distinct(self):
        a, b = spawn_task_seeds(42, 32), spawn_task_seeds(42, 32)
        assert a == b
        assert len(set(a)) == 32
        assert spawn_task_seeds(43, 32) != a

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_task_seeds(0, -1)

    @given(root=st.integers(0, 2**63 - 1), n=st.integers(0, 64))
    @settings(max_examples=25, deadline=None)
    def test_seeds_fit_uint64(self, root, n):
        seeds = spawn_task_seeds(root, n)
        assert len(seeds) == n
        assert all(0 <= s < 2**64 for s in seeds)


class TestMergeCounters:
    def test_sums_nested_numeric_leaves(self):
        into = {"a": 1, "sub": {"hits": 2}}
        merge_counters(into, {"a": 3, "sub": {"hits": 5, "misses": 1}})
        assert into == {"a": 4, "sub": {"hits": 7, "misses": 1}}

    def test_non_numeric_leaves_overwrite(self):
        into = {"method": "fork", "flag": True}
        merge_counters(into, {"method": "spawn", "flag": False})
        assert into == {"method": "spawn", "flag": False}


class TestRunShardedInline:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sharded([], jobs=0)

    def test_empty_work_list(self):
        run = run_sharded([], jobs=4)
        assert run.results == []
        assert run.tasks == 0

    def test_injected_clock_times_tasks(self):
        ticks = iter(range(100))
        run = run_sharded(
            [CampaignTask(fn=_square, kwargs={"x": 2})],
            jobs=1,
            clock=lambda: float(next(ticks)),
        )
        assert run.results == [4]
        assert run.worker_busy_s == 1.0  # one tick per task
        assert run.wall_s == 3.0  # wall spans the task's two reads

    def test_no_clock_reports_zero_times(self):
        run = run_sharded(
            [CampaignTask(fn=_square, kwargs={"x": 2})], jobs=1
        )
        assert run.wall_s == 0.0 and run.worker_busy_s == 0.0

    def test_stats_deltas_are_summed(self):
        _CALLS["n"] = 100  # nonzero baseline: deltas, not absolutes
        tasks = [CampaignTask(fn=_counting_task)] * 3
        run = run_sharded(tasks, jobs=1, stats=_calls_snapshot)
        assert run.stats == {"calls": 3, "nested": {"calls": 3}}


class TestRunShardedPool:
    def test_results_come_back_in_list_order(self):
        """Tasks that finish out of order still land at their list
        position; the warm task runs inline, the slow one in the pool."""
        delays = (0.0, 0.5, 0.0, 0.0)
        tasks = [
            CampaignTask(fn=_finish, kwargs={"x": i, "delay_s": d})
            for i, d in enumerate(delays)
        ]
        run = run_sharded(tasks, jobs=2)
        assert [x for x, _ in run.results] == [0, 1, 2, 3]
        finished = [t for _, t in run.results]
        assert finished[1] > max(finished[2:])  # completed out of order
        assert run.jobs == 2

    def test_jobs_do_not_change_results(self):
        seeds = spawn_task_seeds(0, 6)
        tasks = [
            CampaignTask(fn=_tag, kwargs={"index": i, "seed": s})
            for i, s in enumerate(seeds)
        ]
        serial = run_sharded(tasks, jobs=1)
        sharded = run_sharded(tasks, jobs=3)
        assert serial.results == sharded.results
        assert sharded.jobs == 3
        assert sharded.start_method == preferred_start_method()

    def test_jobs_capped_by_task_count(self):
        tasks = [CampaignTask(fn=_square, kwargs={"x": i}) for i in range(2)]
        run = run_sharded(tasks, jobs=8)
        assert run.jobs == 2
        assert run.results == [0, 1]

    def test_preferred_start_method_is_available(self):
        assert (
            preferred_start_method()
            in multiprocessing.get_all_start_methods()
        )


class TestShardedRunMetrics:
    def test_efficiency_and_speedup(self):
        run = ShardedRun(
            results=[], jobs=4, tasks=8, wall_s=2.0, worker_busy_s=6.0,
            cpu_count=8, start_method="fork",
        )
        assert run.worker_efficiency == pytest.approx(6.0 / 8.0)
        assert run.speedup_vs_serial_est == pytest.approx(3.0)

    def test_zero_wall_guard(self):
        run = ShardedRun(
            results=[], jobs=4, tasks=0, wall_s=0.0, worker_busy_s=0.0,
            cpu_count=8, start_method="inline",
        )
        assert run.worker_efficiency == 0.0
        assert run.speedup_vs_serial_est == 0.0

    def test_no_speedup_estimate_on_fewer_cpus_than_jobs(self):
        """Timeshared workers stretch every span, so the ratio would be
        an artefact; the estimate is withheld instead."""
        run = ShardedRun(
            results=[], jobs=4, tasks=8, wall_s=2.0, worker_busy_s=7.0,
            cpu_count=1, start_method="fork",
        )
        assert run.speedup_vs_serial_est is None
        assert run.worker_efficiency == pytest.approx(7.0 / 8.0)
        assert (
            ShardedRun(**{**vars(run), "cpu_count": 4}).speedup_vs_serial_est
            == pytest.approx(3.5)
        )


class TestWarmCache:
    def test_runs_first_task_inline(self):
        tasks = [CampaignTask(fn=_square, kwargs={"x": i}) for i in (3, 1, 2)]
        warm_task, result, busy, delta = warm_cache(tasks)
        assert warm_task is tasks[0]
        assert result == 9
        assert busy == 0.0
        assert delta == {}

    def test_empty_work_list(self):
        assert warm_cache([]) == (None, None, 0.0, {})

    def test_injected_clock_and_stats(self):
        clock = iter([1.0, 3.5]).__next__
        stats = lambda: {"hits": _CALLS["n"]}  # noqa: E731
        tasks = [CampaignTask(fn=_counting_task, kwargs={})]
        _, result, busy, delta = warm_cache(tasks, clock=clock, stats=stats)
        assert busy == pytest.approx(2.5)
        assert delta == {"hits": 1}

    def test_pool_results_identical_with_and_without_warming(self):
        seeds = spawn_task_seeds(7, 5)
        tasks = [
            CampaignTask(fn=_tag, kwargs={"index": i, "seed": s})
            for i, s in enumerate(seeds)
        ]
        warmed = run_sharded(tasks, jobs=2, warm=True)
        cold = run_sharded(tasks, jobs=2, warm=False)
        assert warmed.results == cold.results
        assert warmed.jobs == cold.jobs == 2
