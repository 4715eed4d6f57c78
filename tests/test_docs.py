"""Documentation smoke tests: the README's code runs, docs imports resolve,
the examples import."""

import importlib.util
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def python_blocks(markdown: str) -> list[str]:
    """Extract ```python fenced blocks from a markdown document."""
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_executes(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "<README>", "exec"), namespace)  # noqa: S102
        # the quickstart leaves the headline objects in scope
        assert "duet" in namespace and "base" in namespace

    def test_mentions_all_deliverable_paths(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for path in ("DESIGN.md", "EXPERIMENTS.md", "benchmarks/", "examples/"):
            assert path in readme

    def test_docs_exist(self):
        for name in ("algorithm.md", "architecture.md", "api.md"):
            assert (REPO_ROOT / "docs" / name).exists()


class TestDocImports:
    @pytest.mark.parametrize(
        "doc", sorted((REPO_ROOT / "docs").glob("*.md")), ids=lambda p: p.name
    )
    def test_python_block_imports_resolve(self, doc):
        """Every ``from repro... import ...`` in a docs/ python block imports
        (the import check of ``tools/check_docs.py``, one page per case)."""
        assert _load_check_docs().import_gaps(REPO_ROOT, doc) == []


class TestExamples:
    @pytest.mark.parametrize(
        "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda p: p.stem
    )
    def test_example_imports(self, path):
        """Import only: each example's ``__main__`` guard keeps its run for
        CI, which executes every example end to end."""
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)


class TestExperimentsDoc:
    def test_covers_every_figure_and_table(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for marker in (
            "Fig. 2",
            "Fig. 10",
            "Fig. 11(a)",
            "Fig. 11(b)",
            "Fig. 12(a)",
            "Fig. 12(b)",
            "Fig. 12(c)",
            "Fig. 12(d)",
            "Fig. 12(e)",
            "Fig. 13(a)",
            "Fig. 13(b)",
            "Table I",
        ):
            assert marker in text, f"EXPERIMENTS.md missing {marker}"

    def test_every_bench_file_referenced(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        for bench in bench_dir.glob("bench_fig*.py"):
            assert bench.name in text, f"EXPERIMENTS.md missing {bench.name}"
        assert "bench_table1_area.py" in text
