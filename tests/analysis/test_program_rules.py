"""Whole-program rule coverage against the ``fixtures/program/`` trees.

Each rule gets a ``violations/`` tree (the exact findings it must emit)
and a mirrored ``clean/`` tree (the compliant idiom, zero findings).
The SEED001 violation tree holds both of the rule's catches: a worker
module that obtains the unseeded generator through a cross-module
factory alias, and a parallel module that reuses the parent seed.  It
also holds unseeded backoff jitter under ``reliability/``, which only
the rule's always-in-scope recovery prefix puts in reach.
"""

from pathlib import Path

from repro.analysis.engine import run_lint
from repro.analysis.rules import get_rules

PROGRAM_FIXTURES = Path(__file__).parent / "fixtures" / "program"


def _lint(tree: str, code: str):
    return run_lint(PROGRAM_FIXTURES / tree, rules=get_rules([code]))


class TestSeedDataflow:
    def test_violation_tree_findings(self):
        result = _lint("seed/violations", "SEED001")
        assert [(f.path, f.line, f.rule) for f in result.findings] == [
            ("src/repro/campaign/runner.py", 13, "SEED001"),
            ("src/repro/parallel_rng.py", 3, "SEED001"),
            ("src/repro/parallel_rng.py", 9, "SEED001"),
            ("src/repro/reliability/jitter.py", 11, "SEED001"),
        ]

    def test_aliased_unseeded_generator_in_worker_module(self):
        result = _lint("seed/violations", "SEED001")
        message = result.findings[0].message
        assert "worker-adjacent" in message
        assert "unseeded numpy.random.default_rng" in message
        # The origin trail names the cross-module factory the alias hides.
        assert "repro.campaign.helpers.fresh" in message

    def test_parent_seed_reuse_in_parallel_module(self):
        result = _lint("seed/violations", "SEED001")
        reuse = [f for f in result.findings if f.line == 3]
        assert len(reuse) == 1
        assert reuse[0].line_text == (
            "from concurrent.futures import ProcessPoolExecutor"
        )
        assert "never derives them via" in reuse[0].message
        assert "SeedSequence(...).spawn(...)" in reuse[0].message

    def test_spawn_derived_generators_are_clean(self):
        assert _lint("seed/clean", "SEED001").findings == []


class TestLayering:
    def test_upward_import_and_load_time_cycle(self):
        result = _lint("layering/violations", "LAY001")
        found = sorted((f.path, f.line) for f in result.findings)
        assert found == [
            ("src/repro/core/impl.py", 3),
            ("src/repro/sim/engine.py", 1),
        ]
        by_path = {f.path: f.message for f in result.findings}
        assert (
            "upward import: repro.core -> repro.sim"
            in by_path["src/repro/core/impl.py"]
        )
        assert (
            "load-time import cycle" in by_path["src/repro/sim/engine.py"]
        )
        assert "repro.sim.engine" in by_path["src/repro/sim/engine.py"]
        assert "repro.sim.metrics" in by_path["src/repro/sim/engine.py"]

    def test_lazy_import_breaks_the_cycle_and_downward_edges_pass(self):
        # clean/sim/engine.py imports metrics inside a function: that is
        # the sanctioned cycle-breaker and must not be reported.
        assert _lint("layering/clean", "LAY001").findings == []

    def test_analysis_imports_no_other_repro_package(self, tmp_path):
        # even a layer-0 sibling is off limits to the linter
        for relpath, source in (
            ("src/repro/parallel/__init__.py", "def run_sharded():\n    pass\n"),
            ("src/repro/analysis/__init__.py", ""),
            (
                "src/repro/analysis/engine.py",
                "from repro.analysis import findings\n"
                "from repro.parallel import run_sharded\n",
            ),
            ("src/repro/analysis/findings.py", ""),
        ):
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        result = run_lint(tmp_path, rules=get_rules(["LAY001"]))
        assert [(f.path, f.line) for f in result.findings] == [
            ("src/repro/analysis/engine.py", 2)
        ]
        assert (
            "upward import: repro.analysis -> repro.parallel"
            in result.findings[0].message
        )

    def test_fixture_trees_skip_real_tree_only_checks(self):
        # Neither fixture tree carries src/repro/__init__.py, so the
        # unlisted-package check must stay silent: every reported
        # finding is a direction or cycle violation.
        result = _lint("layering/violations", "LAY001")
        for finding in result.findings:
            assert "not in the layering contract" not in finding.message


class TestPricing:
    def test_unpriced_untested_executor_variant(self):
        result = _lint("pricing/violations", "PRC001")
        assert [(f.path, f.line) for f in result.findings] == [
            ("src/repro/gadgets.py", 4),
            ("src/repro/gadgets.py", 4),
        ]
        messages = sorted(f.message for f in result.findings)
        assert all("TileExecutor" in m for m in messages)
        assert any("cost model" in m or "pricing" in m for m in messages)
        assert any("test" in m for m in messages)

    def test_priced_and_tested_variant_is_clean(self):
        assert _lint("pricing/clean", "PRC001").findings == []


class TestDeadExports:
    def test_unreferenced_public_export_flagged_by_name(self):
        result = _lint("deadexport/violations", "DEAD001")
        exports = [f for f in result.findings if "public export" in f.message]
        assert [(f.path, f.line) for f in exports] == [
            ("src/repro/util/__init__.py", 6),
            ("src/repro/util/__init__.py", 6),
        ]
        assert "'tested'" in exports[0].message
        assert "'unused'" in exports[1].message
        assert not any("'used'" in f.message for f in exports)

    def test_test_only_definition_flagged(self):
        """A top-level def whose only caller is under tests/ is dead."""
        result = _lint("deadexport/violations", "DEAD001")
        definitions = [f for f in result.findings if "top-level" in f.message]
        assert [(f.path, f.line) for f in definitions] == [
            ("src/repro/oracle.py", 5)
        ]
        assert "'reference_sum'" in definitions[0].message

    def test_fully_consumed_exports_are_clean(self):
        """Registered classes count as used; a suppressed oracle is kept."""
        result = _lint("deadexport/clean", "DEAD001")
        assert result.findings == []
        assert result.suppressed == 1


class TestFixtureTreesAgainstFullRuleSet:
    def test_clean_trees_are_clean_under_every_rule(self):
        for tree in ("seed/clean", "layering/clean", "pricing/clean",
                     "deadexport/clean"):
            result = run_lint(PROGRAM_FIXTURES / tree)
            assert result.findings == [], (tree, result.findings)
