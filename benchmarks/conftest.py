"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
reports the measured rows/series next to the paper's values.  Results are
printed to the terminal (bypassing capture) and mirrored under
``benchmarks/results/`` so EXPERIMENTS.md can reference them.
"""

import os
import pathlib

import numpy as np
import pytest

from repro.core.cache import CACHE_DIR_ENV

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _disk_cache_outside_the_checkout(tmp_path_factory):
    """Point the persistent caches at a scratch directory for the session,
    so no benchmark reads values an earlier run left in ``.duet-cache/``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("duet-cache")))
        yield


@pytest.fixture(scope="session")
def jobs():
    """Worker processes for sharded campaigns: ``DUET_JOBS`` (default 1).

    Campaign documents are byte-identical for any worker count
    (:mod:`repro.parallel`), so CI can export ``DUET_JOBS=4`` to spend
    more cores on ``pytest benchmarks/`` without changing a single
    benchmark assertion.
    """
    raw = os.environ.get("DUET_JOBS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"DUET_JOBS must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise pytest.UsageError(f"DUET_JOBS must be >= 1, got {value}")
    return value


@pytest.fixture
def report(request, capsys):
    """Emit a benchmark's result table to the terminal and a results file."""
    def _report(text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{request.node.name}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{request.node.name}\n{'=' * 72}\n{text}")

    return _report


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2020)


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.mean(np.log(values))))
