"""Bench harness: discovery, timing, equivalence, JSON emission.

The harness times every selected suite twice -- once on the vectorized
fast path (``fast_path=True``, the default configuration) and once on the
per-event reference slow path -- and refuses to call the run equivalent
unless the two produce *equal* fingerprints (every simulated cycle,
energy and utilisation counter identical).  Results land in
``BENCH_duet.json`` (schema ``duet-bench/1``):

- per suite: wall times for both paths (min over ``repeat`` timed runs
  after ``warmup`` untimed ones), total simulated cycles, the
  fast-over-slow wall-clock speedup, and the equivalence verdict;
- globally: the discovered ``benchmarks/bench_*.py`` files (including
  the ones without a registered timing suite), the geometric-mean
  speedup, and an ``all_equivalent`` flag.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from repro.bench.document import run_campaign
from repro.bench.suites import SUITES, BenchSuite, prepare_models
from repro.parallel import CampaignTask
from repro.sim.config import DuetConfig

__all__ = [
    "BENCH_SCHEMA",
    "discover_bench_files",
    "run_suite",
    "run_bench",
]

#: schema identifier written into BENCH_duet.json.
BENCH_SCHEMA = "duet-bench/1"


def discover_bench_files(bench_dir: str | Path = "benchmarks") -> list[str]:
    """All ``bench_*.py`` files under ``bench_dir``, repo-relative, sorted."""
    root = Path(bench_dir)
    if not root.is_dir():
        return []
    return sorted(f"{root.name}/{p.name}" for p in root.glob("bench_*.py"))


def _first_diff(fast, slow, path: str = "$") -> str | None:
    """Path of the first differing leaf between two fingerprints, or None."""
    if type(fast) is not type(slow):
        return path
    if isinstance(fast, dict):
        if sorted(fast) != sorted(slow):
            return path
        for key in fast:
            diff = _first_diff(fast[key], slow[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(fast, (list, tuple)):
        if len(fast) != len(slow):
            return path
        for i, (a, b) in enumerate(zip(fast, slow)):
            diff = _first_diff(a, b, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    return None if fast == slow else path


def _time_mode(
    suite: BenchSuite,
    models: tuple[str, ...],
    fast_path: bool,
    warmup: int,
    repeat: int,
):
    """Prepare fresh workloads and time one path; returns (times, fp, cycles).

    Each mode gets its own prepared workloads (sampling is seeded, so the
    contents are identical) so neither path times against caches the
    other warmed.
    """
    prepared = prepare_models(models)
    config = DuetConfig(fast_path=fast_path)
    for _ in range(warmup):
        suite.runner(prepared, config)
    times = []
    fingerprint = cycles = None
    for _ in range(repeat):
        start = time.perf_counter()
        fingerprint, cycles = suite.runner(prepared, config)
        times.append(time.perf_counter() - start)
    return times, fingerprint, cycles


def run_suite(
    suite: BenchSuite, smoke: bool = False, warmup: int = 1, repeat: int = 3
) -> dict:
    """Run one suite on both paths; returns its JSON-ready result record."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    models = suite.smoke_models if smoke else suite.full_models
    slow_times, slow_fp, slow_cycles = _time_mode(
        suite, models, fast_path=False, warmup=warmup, repeat=repeat
    )
    fast_times, fast_fp, fast_cycles = _time_mode(
        suite, models, fast_path=True, warmup=warmup, repeat=repeat
    )
    diff = _first_diff(fast_fp, slow_fp)
    equivalent = diff is None and fast_cycles == slow_cycles
    record = {
        "name": suite.name,
        "bench_file": suite.bench_file,
        "figure": suite.figure,
        "models": list(models),
        "simulated_cycles": fast_cycles,
        "wall_time_s": {"fast": min(fast_times), "slow": min(slow_times)},
        "wall_times_s": {"fast": fast_times, "slow": slow_times},
        "speedup_vs_slow_path": min(slow_times) / min(fast_times),
        "equivalent": equivalent,
        "equivalence": "bit-identical" if equivalent else "MISMATCH",
    }
    if not equivalent:
        record["first_divergence"] = diff if diff is not None else "$cycles"
    return record


def _suite_task(name: str, smoke: bool, warmup: int, repeat: int) -> dict:
    """One suite as a sharded task (top-level so workers can pickle it)."""
    return run_suite(SUITES[name], smoke=smoke, warmup=warmup, repeat=repeat)


def _select_suites(suite_names, smoke: bool) -> list[BenchSuite]:
    if suite_names:
        unknown = sorted(set(suite_names) - set(SUITES))
        if unknown:
            raise ValueError(
                f"unknown suite(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(SUITES))}"
            )
        return [SUITES[name] for name in suite_names]
    if smoke:
        return [s for s in SUITES.values() if s.in_smoke]
    return list(SUITES.values())


def run_bench(
    suite_names: list[str] | None = None,
    smoke: bool = False,
    warmup: int = 1,
    repeat: int = 3,
    output: str | Path | None = "BENCH_duet.json",
    bench_dir: str | Path = "benchmarks",
    progress=None,
    jobs: int = 1,
    with_perf: bool = True,
) -> dict:
    """Run the selected suites and (optionally) write ``BENCH_duet.json``.

    Args:
        suite_names: explicit suite selection; default = smoke subset when
            ``smoke`` else every registered suite.
        smoke: use the reduced model lists and the smoke suite subset.
        warmup / repeat: untimed and timed runs per path.
        bench_dir: directory scanned for ``bench_*.py`` discovery.
        jobs / output / with_perf / progress: see
            :func:`~repro.bench.document.run_campaign`.

    Returns:
        The full ``duet-bench/1`` document (also written to ``output``).
    """
    selected = _select_suites(suite_names, smoke)
    tasks = [
        CampaignTask(
            fn=_suite_task,
            kwargs={
                "name": suite.name,
                "smoke": smoke,
                "warmup": warmup,
                "repeat": repeat,
            },
        )
        for suite in selected
    ]
    discovered = discover_bench_files(bench_dir)
    timed_files = {s.bench_file for s in SUITES.values()}

    def merge(records: list[dict]) -> dict:
        speedups = [r["speedup_vs_slow_path"] for r in records]
        return {
            "schema": BENCH_SCHEMA,
            "smoke": smoke,
            "warmup": warmup,
            "repeat": repeat,
            "suites": records,
            "discovered_bench_files": discovered,
            "untimed_bench_files": [
                f for f in discovered if f not in timed_files
            ],
            "geomean_speedup_vs_slow_path": (
                float(math.exp(sum(math.log(s) for s in speedups) / len(speedups)))
                if speedups
                else None
            ),
            "all_equivalent": all(r["equivalent"] for r in records),
        }

    return run_campaign(
        BENCH_SCHEMA,
        tasks,
        merge,
        jobs=jobs,
        output=output,
        with_perf=with_perf,
        progress=progress,
        history_keys=("smoke", "geomean_speedup_vs_slow_path", "all_equivalent"),
    )
