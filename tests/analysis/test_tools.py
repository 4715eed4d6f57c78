"""The tools/ scripts honour the repo-wide 0/1/2 exit convention."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_tool(name, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
    )


class TestCheckLinks:
    """The relative-link check of ``tools/check_docs.py``."""

    def test_repo_docs_are_clean(self):
        check_docs = _load("check_docs")
        pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        gaps = [gap for page in pages for gap in check_docs.link_gaps(REPO_ROOT, page)]
        assert gaps == []

    def test_links_in_code_fences_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```\n[fake](nope.md)\n```\n")
        assert _load("check_docs").link_gaps(tmp_path, doc) == []


class TestLintChanged:
    def test_lintable_filters_to_roots_and_python(self):
        lint_changed = _load("lint_changed")
        candidates = [
            "src/repro/cli.py",          # in-root .py -> kept
            "tools/check_docs.py",       # in-root .py -> kept
            "tests/test_cli.py",         # tests/ is not a lint root
            "docs/linting.md",           # not python
            "src/repro/deleted_file.py", # not on disk
            "README.md",
        ]
        assert lint_changed.lintable(candidates) == [
            "src/repro/cli.py",
            "tools/check_docs.py",
        ]

    def test_with_dependents_adds_the_reverse_import_closure(self):
        lint_changed = _load("lint_changed")
        widened = lint_changed.with_dependents(
            ["src/repro/analysis/findings.py", "docs/linting.md"]
        )
        # every analysis consumer of findings.py is pulled in ...
        assert "src/repro/analysis/engine.py" in widened
        assert "src/repro/analysis/cli.py" in widened
        # ... inputs outside the program pass through untouched ...
        assert "docs/linting.md" in widened
        # ... and unrelated leaf packages stay out
        assert "src/repro/nn/functional.py" not in widened
        assert widened == sorted(set(widened))

    def test_bad_base_ref_exits_two(self):
        proc = _run_tool("lint_changed.py", "--base", "no-such-ref-xyz")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_base_flag_requires_argument(self):
        proc = _run_tool("lint_changed.py", "--base")
        assert proc.returncode == 2


class TestDuetlintEntry:
    def test_standalone_script_lints_repo_clean(self):
        proc = _run_tool("duetlint.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr
