#!/usr/bin/env python
"""Compare two bench documents under the determinism contract.

``python tools/compare_bench.py A.json B.json`` loads both documents,
strips the non-deterministic keys (the ``perf`` block, the ``history``
trail, wall-clock fields -- see
:data:`repro.bench.document.NONDETERMINISTIC_KEYS`), and diffs the rest.
This is the check CI runs between ``--jobs 1`` and ``--jobs N`` outputs:
the views must agree exactly even though the wall clocks never will.

Differing campaign documents additionally get a per-scenario delta
table (B relative to A) instead of only the bare first-difference path
-- the campaign's interesting drift is almost always one of a few
metric axes.  Covered schemas and their axes:

- ``duet-dynamic/1``: goodput, mean exit depth, mean estimated drop per
  serving scenario;
- ``duet-serve/1``: throughput, reject/degrade rate, p99 latency per
  scenario;
- ``duet-chaos/1``: goodput, success rate, retries, p99 latency per
  (policy, fault-rate) cell;
- ``duet-fleet/1``: goodput, reject rate, peak servers, p99 latency per
  scenario.

Verdict flips are listed for any document pair carrying ``verdicts``.

Exit convention: 0 equal, 1 documents differ, 2 usage or I/O error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.document import deterministic_view  # noqa: E402


def _first_diff(a, b, path: str = "$") -> str | None:
    """Path of the first differing leaf between two JSON values.

    Object keys compare in order: documents are byte-identical or they
    differ, so a reordered object differs at its own path.
    """
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        if list(a) != list(b):
            return path
        for key in a:
            diff = _first_diff(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return path
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_diff(x, y, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    return None if a == b else path


def _cell_label(record: dict) -> str:
    """``policy@fault_rate`` identity of one chaos-grid cell."""
    return f"{record.get('policy')}@{record.get('fault_rate')}"


def _name_label(record: dict) -> str:
    return str(record.get("name"))


#: schema -> (record-list key, record identity, [(dotted metric, fmt)]).
#: Dotted metrics index into nested dicts (``summary.latency_ms.p99``).
_DELTA_SPECS: dict[str, tuple] = {
    "duet-dynamic/1": (
        "scenarios",
        _name_label,
        (
            ("goodput_rps", "+.1f"),
            ("mean_exit_depth", "+.3f"),
            ("mean_quality_drop", "+.4f"),
        ),
    ),
    "duet-serve/1": (
        "scenarios",
        _name_label,
        (
            ("summary.throughput_rps", "+.1f"),
            ("summary.reject_rate", "+.4f"),
            ("summary.degrade_rate", "+.4f"),
            ("summary.latency_ms.p99", "+.2f"),
        ),
    ),
    "duet-chaos/1": (
        "cells",
        _cell_label,
        (
            ("summary.goodput_rps", "+.1f"),
            ("summary.success_rate", "+.4f"),
            ("summary.retries", "+.0f"),
            ("summary.latency_ms.p99", "+.2f"),
        ),
    ),
    "duet-fleet/1": (
        "scenarios",
        _name_label,
        (
            ("goodput_rps", "+.1f"),
            ("summary.reject_rate", "+.4f"),
            ("peak_servers", "+.0f"),
            ("summary.latency_ms.p99", "+.2f"),
        ),
    ),
}


def _metric(record: dict, dotted: str):
    """``record['summary']['latency_ms']['p99']`` for dotted keys."""
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def _schema_deltas(schema: str, a: dict, b: dict) -> list[str]:
    """Per-record metric delta lines for two same-schema documents."""
    records_key, label, metrics = _DELTA_SPECS[schema]
    a_records = {
        label(r): r for r in a.get(records_key, []) if isinstance(r, dict)
    }
    b_records = {
        label(r): r for r in b.get(records_key, []) if isinstance(r, dict)
    }
    lines = []
    for name in sorted(set(a_records) | set(b_records)):
        if name not in a_records or name not in b_records:
            only = "B" if name not in a_records else "A"
            lines.append(f"  {name}: present only in {only}")
            continue
        left, right = a_records[name], b_records[name]
        deltas = []
        for key, fmt in metrics:
            x, y = _metric(left, key), _metric(right, key)
            if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                deltas.append(f"{key} {format(y - x, fmt)}")
        lines.append(f"  {name}: " + (", ".join(deltas) or "no shared metrics"))
    a_verdicts = a.get("verdicts", {})
    b_verdicts = b.get("verdicts", {})
    flipped = sorted(
        key
        for key in set(a_verdicts) | set(b_verdicts)
        if a_verdicts.get(key) != b_verdicts.get(key)
    )
    if flipped:
        lines.append(f"  verdicts flipped: {', '.join(flipped)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(
            "usage: python tools/compare_bench.py A.json B.json",
            file=sys.stderr,
        )
        return 2
    documents = []
    for name in argv:
        try:
            documents.append(json.loads(Path(name).read_text()))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {name}: {exc}", file=sys.stderr)
            return 2
    views = [deterministic_view(d) for d in documents]
    diff = _first_diff(*views)
    if diff is not None:
        print(f"documents differ at {diff} (after stripping perf/history)")
        schema = documents[0].get("schema")
        if schema in _DELTA_SPECS and documents[1].get("schema") == schema:
            print("per-scenario deltas (B - A):")
            for line in _schema_deltas(schema, *views):
                print(line)
        return 1
    print(f"deterministic views of {argv[0]} and {argv[1]} are identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
