"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload zoo_sweep --seed 0 --seconds 10 --trace 0

Runs from the root of a checkout.  The workload runs in fresh
``python -m perfbench.child`` subprocesses with the checkout's ``src`` on
``PYTHONPATH``, BLAS pinned to one thread, and ``DUET_CACHE_DIR`` in a
fresh temporary directory that is deleted afterwards.  One subprocess
times every op of the run.  An untraced run first starts ``SETUPS - 1``
subprocesses that only set up, and reports the median of all ``SETUPS``
set-ups as ``setup_s``.  A traced run (``--trace 1``) sets up once, with
wrappers installed, and reports the per-layer metrics instead.

Prints the metrics by name and unit, then, as the last line, the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 when
the checkout has no library source or the arguments are invalid, and 1
when a subprocess fails or overruns; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import load_spec  # noqa: E402  (needs ROOT on sys.path)

#: set-ups per untraced run; ``setup_s`` is their median.  They all run
#: before the timed ops, so none of them competes with a previous op's
#: late disk writes.
SETUPS = 5

#: wall-clock budget for the whole run, below the 180 s limit.
BUDGET_S = 170.0


class ChildError(RuntimeError):
    """A workload subprocess failed, overran, or printed no report."""


def _child(args, workdir: Path, cache_dir: Path, deadline: float, seconds: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        DUET_CACHE_DIR=str(cache_dir),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--size", args.size,
        "--workdir", str(workdir),
    ]
    if args.trace:
        command.append("--trace")
    if args.spans:
        command += ["--spans", str(Path(args.spans).resolve())]
    command += ["--t0", repr(time.monotonic())]
    # a session of its own, so an overrun kills the campaign pool workers too
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildError(f"{args.workload} overran the {BUDGET_S:.0f} s budget") from None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildError(f"{args.workload} subprocess exited {child.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise ChildError(f"{args.workload} subprocess printed no report") from None


def measure(args) -> tuple[dict, dict]:
    """Run the subprocesses; returns ``(result line, extra detail)``."""
    spec = load_spec(ROOT)
    deadline = time.monotonic() + BUDGET_S
    setups = 1 if args.trace else SETUPS
    # inside the checkout: a run reads and writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workdir = Path(scratch)
        # every subprocess gets an empty disk cache of its own
        reports = [
            _child(args, workdir, workdir / f"cache-{k}", deadline, 0.0)
            for k in range(setups - 1)
        ]
        timed = _child(args, workdir, workdir / "cache-timed", deadline, args.seconds)
    reports.append(timed)
    op_seconds = timed["op_seconds"]
    if args.trace:
        layers = timed["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "ops_per_s": len(op_seconds) / sum(op_seconds),
            "op_p50_ms": 1e3 * statistics.median(op_seconds),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {"ops": len(op_seconds), "setups": len(reports)}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed op seconds per run (the last op finishes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for tests")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write every span to this JSONL file")
    parser.add_argument("--record", default=None,
                        help="append {workload, seed, trace, result} to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in load_spec(ROOT)["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed (failed_ratio {result['failed'] / result['attempted']:.4f})"
    )
    for name, metric in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {detail['setups']} set-ups)"
        elif name == "op_p50_ms":
            note = f"  (n={detail['ops']})"
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}{note}")
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "size": args.size, "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
