"""The incremental cache never changes output.

The contract is byte-level *fingerprint stability*: for any small tree,
a warm (cached) lint and a ``--no-cache`` lint render JSON reports
byte-identical to the cold run that populated the cache -- and the warm
run actually hits.  It is a hypothesis property over generated trees
mixing clean and deliberately-violating modules, so the stability claim
is not anchored to one lucky layout.
"""

import itertools
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import run_lint
from repro.analysis.findings import Finding
from repro.analysis.incremental import (
    CACHE_DISK_ENV,
    IncrementalCache,
    engine_digest,
)

#: module bodies the property test mixes into trees: compliant code,
#: per-file violations (DET001), and whole-program taint via an aliased
#: cross-module RNG factory (SEED001 when worker-adjacent).
SNIPPETS = (
    "def add(a, b):\n    return a + b\n",
    "import numpy as np\n\n\ndef noise(n):\n    return np.random.rand(n)\n",
    "from random import randint\n\n\ndef pick(n):\n    return randint(0, n)\n",
    "import numpy as np\n\n\ndef fresh():\n    return np.random.default_rng()\n",
    (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from repro.mod0 import add\n\n\n"
        "def run(xs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(add, xs, xs))\n"
    ),
)


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch):
    """Keep an ambient DUET_CACHE_DISK=0 from making these tests vacuous.

    ``DUET_CACHE_DIR`` is already pointed at a per-test scratch store by
    the package conftest; leave it there.
    """
    monkeypatch.delenv(CACHE_DISK_ENV, raising=False)


def render_report(root: Path, *extra: str) -> str:
    """The ``--format=json`` report text of one CLI lint run."""
    out, err = StringIO(), StringIO()
    code = lint_main(
        ["--root", str(root), "--format", "json", *extra], out=out, err=err
    )
    assert code in (0, 1), err.getvalue()
    return out.getvalue()


class TestFingerprintStability:
    _case = itertools.count()

    @settings(
        deadline=None,
        max_examples=10,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(picks=st.lists(st.sampled_from(range(len(SNIPPETS))), min_size=1, max_size=4))
    def test_cold_warm_and_uncached_reports_are_byte_identical(
        self, tmp_path, picks
    ):
        root = tmp_path / f"case{next(self._case)}"
        for index, pick in enumerate(picks):
            path = root / "src" / "repro" / f"mod{index}.py"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(SNIPPETS[pick])
        cold = render_report(root)
        warm = render_report(root)
        uncached = render_report(root, "--no-cache")
        assert warm == cold
        assert uncached == cold

    def test_warm_run_actually_hits_the_store(self, tmp_path):
        path = tmp_path / "src" / "repro" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(SNIPPETS[1])
        cold = run_lint(tmp_path, cache=IncrementalCache(tmp_path))
        assert cold.cache_hits == 0
        assert cold.cache_misses > 0
        warm = run_lint(tmp_path, cache=IncrementalCache(tmp_path))
        assert warm.cache_hits > 0
        assert [f.as_dict() for f in warm.findings] == [
            f.as_dict() for f in cold.findings
        ]

    def test_source_edit_invalidates_only_that_module(self, tmp_path):
        for name, snippet in (("a", SNIPPETS[0]), ("b", SNIPPETS[2])):
            path = tmp_path / "src" / "repro" / f"{name}.py"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(snippet)
        run_lint(tmp_path, cache=IncrementalCache(tmp_path))
        (tmp_path / "src" / "repro" / "a.py").write_text(
            "def add(a, b):\n    return b + a\n"
        )
        edited = run_lint(tmp_path, cache=IncrementalCache(tmp_path))
        # b.py still hits; a.py and the whole-program entry recompute
        assert edited.cache_hits >= 1
        assert edited.cache_misses >= 2


class TestCacheStore:
    def test_disabled_cache_never_loads_or_stores(self, tmp_path):
        cache = IncrementalCache(tmp_path, enabled=False)
        cache.store("module-x", [])
        assert cache.load("module-x") is None
        assert not (tmp_path / ".duet-cache").exists()

    def test_kill_switch_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DISK_ENV, "0")
        cache = IncrementalCache(tmp_path)
        assert not cache.enabled

    def test_round_trip_preserves_findings(self, tmp_path):
        cache = IncrementalCache(tmp_path)
        finding = Finding(
            path="src/repro/mod.py", line=3, col=4, rule="DET001",
            message="ambient entropy", severity="error", line_text="x = 1",
        )
        cache.store("module-abc", [finding])
        loaded = cache.load("module-abc")
        assert loaded == [finding]
        assert loaded[0].fingerprint == finding.fingerprint

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = IncrementalCache(tmp_path)
        cache.store("module-abc", [])
        cache._path("module-abc").write_text("{not json")
        assert cache.load("module-abc") is None

    def test_engine_digest_is_stable_within_a_process(self):
        assert engine_digest() == engine_digest()
