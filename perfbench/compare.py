"""Compare benchmark records: ``python3 perfbench/compare.py A [B]``.

``A`` and ``B`` are record files written by ``run.py --record`` or
``sweep.py`` (JSON lines), or ``FILE#SET`` naming one set of a baseline
document such as ``perfbench/baseline.json#first``.

With one file, prints each workload's run-to-run spread per end-to-end
metric -- the distance between the quartiles as a share of the median --
against the metric's bound, and exits 1 if any spread exceeds its bound
-- the spread that makes ``compare`` call a metric ``unresolved``.

With two files (``A`` the parent, ``B`` the change), applies these rules
to every workload x end-to-end metric, pairing runs in record order:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile distance;
- ``unresolved``: otherwise, when either side's spread exceeds the bound
  and not every B run reads better than every A run;
- ``unchanged``: otherwise.

Traced records are paired by workload and seed, and every simulated
count (``hw.*`` and the ``serving.*`` counts) must be identical.  Exits 0
when nothing is worse or unresolved, every count matches and B fails no
more ops than A; 1 otherwise; 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import is_exact_count, load_spec, quartiles, relative_spread  # noqa: E402


class InputError(ValueError):
    """A record file that cannot be read."""


def load_records(source: str) -> list[dict]:
    """Records from a JSON-lines file or from ``FILE#SET`` of a baseline."""
    path, _, set_name = source.partition("#")
    try:
        text = Path(path).read_text()
        if set_name:
            records = json.loads(text)["sets"][set_name]
        else:
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read records from {source}: {exc!r}") from None
    if not isinstance(records, list) or not all(map(_is_record, records)):
        raise InputError(f"{source} holds something other than benchmark records")
    return records


def _is_record(record) -> bool:
    return (
        isinstance(record, dict)
        and {"workload", "seed", "trace", "result"} <= record.keys()
        and isinstance(record["result"], dict)
        and "failed" in record["result"]
        and isinstance(record["result"].get("metrics"), dict)
    )


def series(records: list[dict], workload: str, metric: str) -> list[float]:
    """Untraced values of ``metric`` on ``workload``, in record order."""
    return [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and not r["trace"]
        and metric in r["result"]["metrics"]
    ]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The regression verdict of one workload x metric (module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    if sign * (median_b - median_a) < -bound * median_a:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if wins >= 0.9 * len(pairs) and abs(median_b - median_a) > q3 - q1:
        return "better"
    all_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    wide = relative_spread(parent) > bound or relative_spread(change) > bound
    if wide and not all_better:
        return "unresolved"
    return "unchanged"


def count_mismatches(parent: list[dict], change: list[dict], units: dict) -> list[str]:
    """Simulated counts that differ between traced runs of equal seed."""
    def traced(records):
        return {(r["workload"], r["seed"]): r["result"]["metrics"] for r in records if r["trace"]}

    a, b = traced(parent), traced(change)
    out = []
    for key in sorted(a.keys() & b.keys()):
        for name, metric in a[key].items():
            other = b[key].get(name, {}).get("value")
            if is_exact_count(name, units.get(name, "")) and other != metric["value"]:
                out.append(f"{key[0]} seed {key[1]}: {name} {metric['value']} -> {other}")
    return out


def _workloads(spec: dict, *record_sets) -> list[str]:
    present = {r["workload"] for records in record_sets for r in records}
    return [w["name"] for w in spec["workloads"] if w["name"] in present]


def spread_report(records: list[dict], spec: dict) -> int:
    """Print per-metric spreads of one record set; 1 if any exceeds its bound."""
    status = 0
    print(f"{'workload':<12} {'metric':<12} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in _workloads(spec, records):
        for metric in spec["end_to_end"]:
            values = series(records, workload, metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = relative_spread(values)
            flag = ""
            if spread > metric["bound"]:
                flag, status = "  over bound", 1
            elif spread > metric["bound"] / 3:
                flag = "  over bound/3"
            print(f"{workload:<12} {metric['name']:<12} {len(values):>3} {q1:>12.6g} "
                  f"{median:>12.6g} {q3:>12.6g} {spread:>7.3f} {metric['bound']:>6.2f}{flag}")
    return status


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    """Print the verdict table of ``change`` against ``parent``; 0 or 1."""
    status = 0
    print(f"{'workload':<12} {'metric':<12} {'A median':>12} {'A q1..q3':>25} "
          f"{'B median':>12} {'B q1..q3':>25} {'bound':>6}  verdict")
    workloads = _workloads(spec, parent, change)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = series(parent, workload, metric["name"])
            b = series(change, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            status |= result in ("worse", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<12} {metric['name']:<12} {qa[1]:>12.6g} "
                  f"{qa[0]:>12.6g}..{qa[2]:<11.6g} {qb[1]:>12.6g} "
                  f"{qb[0]:>12.6g}..{qb[2]:<11.6g} {metric['bound']:>6.2f}  {result}")
    failed_a = sum(r["result"]["failed"] for r in parent if r["workload"] in workloads)
    failed_b = sum(r["result"]["failed"] for r in change if r["workload"] in workloads)
    print(f"failed ops: A {failed_a}, B {failed_b}")
    if failed_b > failed_a:
        status = 1
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mismatches = count_mismatches(parent, change, units)
    for line in mismatches:
        print(f"count mismatch: {line}")
    print(f"simulated counts: {'identical' if not mismatches else f'{len(mismatches)} differ'}")
    return 1 if mismatches else status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", help="records of the parent (or the only set)")
    parser.add_argument("change", nargs="?", help="records of the change")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        parent = load_records(args.parent)
        change = load_records(args.change) if args.change else None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if change is None:
        return spread_report(parent, spec)
    if not set(_workloads(spec, parent)) & set(_workloads(spec, change)):
        print("error: no benchmark workload in both record sets", file=sys.stderr)
        return 2
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
