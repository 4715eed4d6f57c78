"""One workload process: set up, run the timed loop, report as JSON.

Started by ``perfbench/run.py`` as ``python -m perfbench.child`` from the
checkout root with the checkout's ``src`` on ``PYTHONPATH``; prints one
JSON object as its last stdout line.

The loop is a closed loop from one process: op ``i + 1`` starts only
after op ``i`` and its output check have finished.  Only op bodies are
timed.  In a traced run even ops run without wrappers and odd ops with
them, so the tracing overhead is measured on the same kind of op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def run_loop(workload, seconds: float, tracer=None, install=None, clock=time.perf_counter) -> dict:
    """Time ops of ``workload`` until ``seconds`` of op time have passed.

    Args:
        workload: a set-up :class:`perfbench.suite.Workload`.
        seconds: timed op seconds to run for (the last op finishes); none
            at all when not positive, except that a traced run always
            times one unwrapped and one wrapped op.
        tracer: a :class:`perfbench.spans.Tracer` for a traced run; then
            odd ops run with ``install(tracer)``'s wrappers in place.
        install: ``install(tracer) -> Patches``.
        clock: monotonic seconds used to time ops.

    Returns:
        ``{"untraced": [op seconds], "traced": [op seconds], "attempted",
        "failed"}``; an op fails when it raises or its check rejects it.
    """
    untraced, traced = [], []
    failed = 0
    i = 0
    while i < (2 if tracer is not None else 0) or sum(untraced) + sum(traced) < seconds:
        wrapped = tracer is not None and i % 2 == 1
        run = workload.prepare(i)
        patches = install(tracer) if wrapped else None
        if wrapped:
            tracer.op = i
            tracer.begin("op")
        ok = True
        start = clock()
        try:
            out = run()
        except Exception:  # a failing op is counted, never fatal to the run
            traceback.print_exc()
            ok = False
        finally:
            took = clock() - start
            if wrapped:
                tracer.end()
                tracer.op = -1
                patches.remove()
        (traced if wrapped else untraced).append(took)
        if ok:
            try:
                ok = bool(workload.check(i, out))
            except Exception:
                traceback.print_exc()
                ok = False
        failed += not ok
        i += 1
    return {"untraced": untraced, "traced": traced, "attempted": i, "failed": failed}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, loop: dict, cache_before: dict, cache_after: dict) -> dict:
    """Per-layer numbers of a traced run; see ``perfbench/README.md``.

    Time metrics are self seconds per traced op unless named otherwise;
    set-up metrics cover the one set-up of the run.
    """
    ops = len(loop["traced"])
    self_s, total_s, counts = tracer.self_s, tracer.total_s, tracer.counts
    samples = counts[("sim.batching.samples", True)]

    def per_op(name: str) -> float:
        return self_s[(name, True)] / ops

    out = {
        "nn.train_s": total_s[("nn.train", False)],
        "serving.loadgen.generate_s": total_s[("serving.loadgen.generate", False)],
        "trace.overhead_ratio": _ratio(
            statistics.median(loop["untraced"]), statistics.median(loop["traced"])
        ),
        "trace.coverage_ratio": 1.0 - _ratio(self_s[("op", True)], total_s[("op", True)]),
        "sim.run_calls": counts[("sim.run.calls", True)] / ops,
        "sim.host_us_per_layer": 1e6 * _ratio(
            self_s[("sim.run", True)], counts[("sim.run.layers", True)]
        ),
        "sim.batching.memo_hit_ratio": _ratio(
            samples - counts[("sim.batching.misses", True)], samples
        ),
        "core.cache.disk.bytes": cache_after["disk"]["bytes"],
    }
    for name in ("workloads.prep", "sim.run", "sim.batching.execute",
                 "core.set_thresholds", "core.evaluate"):
        out[f"{name}_s"] = per_op(name)
    for loop_name in ("serving.server", "serving.faulttol", "serving.fleet"):
        out[f"{loop_name}.self_us_per_request"] = 1e6 * _ratio(
            self_s[(loop_name, True)], counts[(f"{loop_name}.requests", True)]
        )
    for tier in ("im2col", "switching_map", "threshold", "disk"):
        before, after = cache_before[tier], cache_after[tier]
        hits = after["hits"] - before["hits"]
        out[f"core.cache.{tier}.hit_ratio"] = _ratio(hits, hits + after["misses"] - before["misses"])
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.monotonic() just before spawning")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from perfbench import suite  # the library import being measured

    report = {"import_s": time.perf_counter() - start}
    from perfbench import spans
    from repro.core.cache import cache_stats

    tracer = spans.Tracer() if args.trace else None
    patches = spans.install(tracer) if tracer is not None else None
    workload = suite.WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    workload.setup()
    # CLOCK_MONOTONIC is system-wide on Linux, so this spans process start
    report["setup_s"] = time.monotonic() - args.t0
    if patches is not None:
        patches.remove()
    cache_before = cache_stats()
    loop = run_loop(workload, args.seconds, tracer, spans.install)
    cache_after = cache_stats()
    report.update(
        attempted=loop["attempted"],
        failed=loop["failed"],
        op_seconds=loop["untraced"],
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        report["layers"] = {
            "setup.import_s": report["import_s"],
            **layer_metrics(tracer, loop, cache_before, cache_after),
            **workload.layer_metrics(),
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
