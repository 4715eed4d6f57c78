"""Tests for the docs checker (`tools/check_docs.py`).

One table drives a minimal tree through each fault the checker owns:
the tree is clean as built, and each case breaks exactly one contract,
so ``check_tree`` must report exactly one gap.  The subprocess tests
pin the 0/1/2 exit convention, and the live-tree test is the actual
gate: the committed docs must hold every contract.
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.rules.layering import LAYERS
from repro.cli import build_parser
from repro.sim.config import DuetConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def _run_tool(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def _minimal_tree() -> dict[str, str]:
    """relpath -> text of the smallest tree that holds every contract."""
    commands = "\n".join(
        f"python -m repro {name}" for name in check_docs.registered_commands()
    )
    fields = "\n".join(f"| `{f.name}` |" for f in dataclasses.fields(DuetConfig))
    layers = "\n".join(f"| {layer} | `{name}` |" for name, layer in LAYERS.items())
    return {
        "README.md": (
            "See [the API](docs/api.md) and `repro.sim.DuetAccelerator`.\n\n"
            "```\n[fenced, not a link](nowhere.md) `repro.nowhere`\n```\n"
        ),
        "docs/api.md": (
            f"```bash\n{commands}\n```\n\n"
            "```python\nfrom repro.sim.config import DuetConfig\n```\n\n"
            f"{fields}\n"
        ),
        "docs/benchmarks.md": "`BENCH_x.json` (schema `duet-x/1`)\n",
        "docs/architecture.md": f"| Layer | Packages |\n|---|---|\n{layers}\n",
        "BENCH_x.json": json.dumps({"schema": "duet-x/1"}),
        "src/repro/mod.py": '"""Wraps :class:`~repro.sim.config.DuetConfig`."""\n',
    }


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


# (case, file, text replaced, replacement, the one gap expected)
FAULTS = [
    ("missing-subcommand-row", "docs/api.md", "python -m repro simulate\n", "",
     "docs/api.md: no `python -m repro simulate` row"),
    ("stale-subcommand-row", "docs/api.md", "```bash\n",
     "```bash\npython -m repro gone\n",
     "docs/api.md: stale row `python -m repro gone`"),
    ("undocumented-bench-schema", "docs/benchmarks.md", " (schema `duet-x/1`)", "",
     "docs/benchmarks.md: schema `duet-x/1` of BENCH_x.json"),
    ("unmentioned-bench-file", "docs/benchmarks.md", "`BENCH_x.json` ", "",
     "docs/benchmarks.md: never mentions BENCH_x.json"),
    ("dead-link", "README.md", "(docs/api.md)", "(docs/gone.md)",
     "README.md:1: dead link -> docs/gone.md"),
    ("failing-doc-import", "docs/api.md", "import DuetConfig", "import NoSuchConfig",
     "docs/api.md: `from repro.sim.config import NoSuchConfig` fails"),
    ("undocumented-config-field", "docs/api.md", "| `glb_bytes` |\n", "",
     "docs/api.md: DuetConfig field `glb_bytes` is not documented"),
    ("drifted-layer-table", "docs/architecture.md", "| 4 | `sim` |", "| 5 | `sim` |",
     "docs/architecture.md: layering table disagrees"),
    ("stale-prose-path", "README.md", "repro.sim.DuetAccelerator", "repro.sim.Gone",
     "README.md:1: `repro.sim.Gone` does not resolve"),
    ("stale-docstring-role", "src/repro/mod.py", "repro.sim.config.DuetConfig",
     "repro.sim.Gone", "src/repro/mod.py:1: :class:`repro.sim.Gone` does not resolve"),
]


class TestCheckTree:
    def test_minimal_tree_is_clean(self, tmp_path):
        assert check_docs.check_tree(_write_tree(tmp_path, _minimal_tree())) == []

    @pytest.mark.parametrize(
        "relpath, old, new, expected", [case[1:] for case in FAULTS],
        ids=[case[0] for case in FAULTS],
    )
    def test_one_fault_one_gap(self, tmp_path, relpath, old, new, expected):
        files = _minimal_tree()
        assert old in files[relpath]
        files[relpath] = files[relpath].replace(old, new)
        gaps = check_docs.check_tree(_write_tree(tmp_path, files))
        assert len(gaps) == 1, gaps
        assert expected in gaps[0]


class TestCliCoverage:
    def test_registered_commands_come_from_the_parser(self):
        commands = check_docs.registered_commands()
        assert "simulate" in commands
        assert "fleet" in commands
        assert "lint" in commands
        assert commands == sorted(commands)

    def test_full_coverage_is_clean(self):
        assert check_docs.cli_gaps(_minimal_tree()["docs/api.md"]) == []


class TestBenchCoverage:
    def test_documented_file_is_clean(self, tmp_path):
        files = _minimal_tree()
        root = _write_tree(tmp_path, files)
        assert check_docs.bench_gaps(root, files["docs/benchmarks.md"]) == []

    def test_schema_less_bench_file_raises(self, tmp_path):
        for document in ({"results": []}, [1, 2]):
            (tmp_path / "BENCH_x.json").write_text(json.dumps(document))
            with pytest.raises(ValueError, match="no schema"):
                check_docs.bench_gaps(tmp_path, "")


class TestExitConvention:
    def test_live_tree_exits_zero(self):
        proc = _run_tool()
        assert proc.returncode == 0, proc.stderr
        assert "docs cover" in proc.stdout

    def test_coverage_gap_exits_one(self, tmp_path):
        _write_tree(tmp_path, {**_minimal_tree(), "docs/api.md": "no rows here\n"})
        proc = _run_tool("--root", str(tmp_path))
        assert proc.returncode == 1
        assert "docs gap(s)" in proc.stderr

    def test_missing_docs_page_exits_two(self, tmp_path):
        proc = _run_tool("--root", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_unreadable_bench_file_exits_two(self, tmp_path):
        _write_tree(tmp_path, {**_minimal_tree(), "BENCH_broken.json": "{not json"})
        proc = _run_tool("--root", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestEverySubcommandHelp:
    @pytest.mark.parametrize("name", check_docs.registered_commands())
    def test_help_runs_clean_and_is_documented(self, name, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([name, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
        # the committed api.md must carry a row for this subcommand
        api_md = (REPO_ROOT / "docs" / "api.md").read_text()
        assert name in check_docs.documented_commands(api_md)
