"""Benchmark runs: result line, determinism, tracing, failure accounting."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import child, spans
from perfbench.run import SETUPS
from perfbench.stats import ROOT, is_exact_count, load_spec
from repro.sim import accelerator


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    done = bench("zoo_sweep", 1, 0)
    result = result_of(done)
    assert f"(median of {SETUPS} set-ups)" in done.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, prefix", [("zoo_sweep", "hw."), ("serve_loops", "serving.")])
def test_tiny_traced_runs_repeat_simulated_counts(workload, prefix):
    first, second = (result_of(bench(workload, 3, 1)) for _ in range(2))
    counts = [
        {name: m["value"] for name, m in result["metrics"].items()
         if is_exact_count(name, m["unit"])}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert any(value for name, value in counts[0].items() if name.startswith(prefix))


class Probe:
    """A workload whose ops record which ``DuetAccelerator.run`` is live."""

    def __init__(self, fail_checks=(), raise_ops=()):
        self.seen = []
        self.fail_checks, self.raise_ops = fail_checks, raise_ops

    def prepare(self, i):
        def run():
            if i in self.raise_ops:
                raise RuntimeError("forced op failure")
            self.seen.append(accelerator.DuetAccelerator.__dict__["run"])
            return i

        return run

    def check(self, i, out):
        return out == i and i not in self.fail_checks


def ticking():
    """A clock that advances one second per reading."""
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


def test_only_traced_ops_patch_duet_run():
    original = accelerator.DuetAccelerator.__dict__["run"]
    probe = Probe()
    child.run_loop(probe, 4.0, clock=ticking())
    assert probe.seen == [original] * 4
    probe.seen.clear()
    child.run_loop(probe, 4.0, tracer=spans.Tracer(), install=spans.install, clock=ticking())
    assert [run is original for run in probe.seen] == [True, False, True, False]
    assert accelerator.DuetAccelerator.__dict__["run"] is original


def test_failed_checks_and_raising_ops_count_as_failed():
    loop = child.run_loop(Probe(fail_checks={2}, raise_ops={4}), 6.0, clock=ticking())
    assert (loop["attempted"], loop["failed"]) == (6, 2)
    assert loop["untraced"] == [1.0] * 6


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("zoo_sweep", 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    assert tracer.spans == [["outer", 1.0, 6.0, -1, -1], ["inner", 2.0, 5.0, 0, -1]]
    assert tracer.self_s[("inner", False)] == 3.0
    assert tracer.self_s[("outer", False)] == 2.0
    assert tracer.total_s[("outer", False)] == 5.0
