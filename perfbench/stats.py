"""Shared helpers: the ``BENCHMARK.json`` spec and run-to-run statistics."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: checkout root (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: units that mark a metric as a host-time measurement.
TIME_UNITS = frozenset({"s", "ms", "us"})


def load_spec(root: Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json`` at ``root``."""
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        (only,) = values
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def is_exact_count(name: str, unit: str) -> bool:
    """Simulated counts that any perf-only change must leave identical."""
    return name.startswith(("hw.", "serving.")) and unit not in TIME_UNITS
