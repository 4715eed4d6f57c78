"""Repeat benchmark runs: ``python3 perfbench/sweep.py --runs 10 --out A.jsonl``.

Runs ``perfbench/run.py`` ``--runs`` times per workload of
``BENCHMARK.json`` for its ``run_seconds``, cycling through the workloads
so slow drifts of the machine spread over all of them.  Run ``k`` uses
seed ``k`` (``--fixed-seed`` keeps seed 0).
Records go to ``--out``; with ``--base DIR --base-out PATH`` every run is
paired with the same run of the checkout at ``DIR``, alternating which
side goes first.  ``--baseline PATH`` then writes both sets and the
machine profile as one document (``perfbench/baseline.json``).

Afterwards prints the spread table of ``compare.py`` for each set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import compare  # noqa: E402
from perfbench.stats import ROOT, load_spec  # noqa: E402


def machine_profile() -> dict:
    """nproc, CPU model, OS, Python and numpy versions of this machine."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int, record: Path) -> None:
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--record", str(record.resolve()),
    ]
    start = time.monotonic()
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
    print(f"{checkout.name}: {workload} seed {seed}: {status} in {time.monotonic() - start:.1f} s",
          flush=True)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base", type=Path, default=None)
    parser.add_argument("--base-out", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    if (args.base is None) != (args.base_out is None):
        parser.error("--base and --base-out go together")
    if args.baseline is not None and args.base is None:
        parser.error("--baseline needs --base")

    sides = [(ROOT, args.out)]
    if args.base is not None:
        sides.append((args.base.resolve(), args.base_out))
    seconds = spec["run_seconds"]
    for k in range(args.runs):
        seed = 0 if args.fixed_seed else k
        for workload in spec["workloads"]:
            for checkout, record in sides if k % 2 == 0 else sides[::-1]:
                _run(checkout, workload["name"], seed, seconds, args.trace, record)

    for _, record in sides:
        print(f"\n{record}:")
        compare.spread_report(compare.load_records(str(record)), spec)
    if args.baseline is not None:
        document = {
            "machine": machine_profile(),
            "run_seconds": seconds,
            "fixed_seed": args.fixed_seed,
            "sets": {
                "first": compare.load_records(str(args.out)),
                "second": compare.load_records(str(args.base_out)),
            },
        }
        args.baseline.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
