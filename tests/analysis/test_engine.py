"""Engine mechanics: suppressions, baselines, fingerprints, discovery."""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, save_baseline
from repro.analysis.engine import (
    ParsedModule,
    discover_files,
    iter_suppressions,
    run_lint,
)
from repro.analysis.schema import SchemaError

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write_module(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


BAD_EXCEPT = "def _f():\n    try:\n        pass\n    except:\n        pass\n"


class TestSuppressions:
    def test_inline_disable_silences_one_line(self, tmp_path):
        _write_module(
            tmp_path,
            "src/repro/mod.py",
            "def _f():\n"
            "    try:\n"
            "        pass\n"
            "    except:  # duetlint: disable=EXC001\n"
            "        pass\n",
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_file_silences_whole_module(self, tmp_path):
        _write_module(
            tmp_path,
            "src/repro/mod.py",
            "# duetlint: disable-file=EXC001\n" + BAD_EXCEPT + BAD_EXCEPT,
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 2

    def test_disable_all_silences_every_rule(self, tmp_path):
        _write_module(
            tmp_path,
            "src/repro/mod.py",
            "import time\n"
            "def _f():\n"
            "    return time.time()  # duetlint: disable=all\n",
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_unrelated_disable_does_not_suppress(self, tmp_path):
        _write_module(
            tmp_path,
            "src/repro/mod.py",
            "def _f():\n"
            "    try:\n"
            "        pass\n"
            "    except:  # duetlint: disable=DET001\n"
            "        pass\n",
        )
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["EXC001"]

    def test_iter_suppressions_parses_comment_forms(self):
        source = (
            "x = 1  # duetlint: disable=DET001,NUM001\n"
            "# duetlint: disable-file=EXC001\n"
        )
        per_line, whole_file = iter_suppressions(source)
        assert per_line == {1: {"DET001", "NUM001"}}
        assert whole_file == {"EXC001"}


class TestBaseline:
    def test_baselined_findings_are_not_reported(self, tmp_path):
        _write_module(tmp_path, "src/repro/mod.py", BAD_EXCEPT)
        first = run_lint(tmp_path)
        assert len(first.findings) == 1

        baseline_path = tmp_path / ".duetlint-baseline.json"
        save_baseline(baseline_path, first.findings)
        fingerprints = load_baseline(baseline_path)

        second = run_lint(tmp_path, baseline_fingerprints=fingerprints)
        assert second.findings == []
        assert second.baselined == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        path = _write_module(tmp_path, "src/repro/mod.py", BAD_EXCEPT)
        before = run_lint(tmp_path).findings[0]

        # Insert lines above the violation: the line number moves but the
        # fingerprint (rule + path + line text) must not.
        path.write_text("import os\n\n\n" + BAD_EXCEPT)
        after = run_lint(tmp_path).findings[0]
        assert after.line != before.line
        assert after.fingerprint == before.fingerprint

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_malformed_baseline_raises_schema_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"schema": "something-else/1", "entries": []}')
        with pytest.raises(SchemaError):
            load_baseline(bad)


class TestResultSemantics:
    def test_exit_code_zero_when_clean(self, tmp_path):
        _write_module(tmp_path, "src/repro/mod.py", "X = 1\n")
        assert run_lint(tmp_path).exit_code() == 0

    def test_exit_code_one_with_findings(self, tmp_path):
        _write_module(tmp_path, "src/repro/mod.py", BAD_EXCEPT)
        assert run_lint(tmp_path).exit_code() == 1

    def test_parse_error_becomes_finding(self, tmp_path):
        _write_module(tmp_path, "src/repro/mod.py", "def broken(:\n")
        result = run_lint(tmp_path)
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert result.exit_code() == 1


class TestDiscovery:
    def test_default_roots_only(self, tmp_path):
        _write_module(tmp_path, "src/repro/a.py", "A = 1\n")
        _write_module(tmp_path, "tools/b.py", "B = 1\n")
        _write_module(tmp_path, "tests/c.py", "C = 1\n")
        files = discover_files(tmp_path)
        assert sorted(files) == ["src/repro/a.py", "tools/b.py"]

    def test_pycache_is_skipped(self, tmp_path):
        _write_module(tmp_path, "src/repro/a.py", "A = 1\n")
        _write_module(tmp_path, "src/repro/__pycache__/a.py", "A = 1\n")
        assert discover_files(tmp_path) == ["src/repro/a.py"]

    def test_missing_explicit_path_raises(self, tmp_path):
        _write_module(tmp_path, "src/repro/a.py", "A = 1\n")
        with pytest.raises(ValueError):
            discover_files(tmp_path, paths=["src/repro/nope.py"])

    def test_explicit_directory_is_expanded(self, tmp_path):
        _write_module(tmp_path, "src/repro/a.py", "A = 1\n")
        _write_module(tmp_path, "src/repro/sub/b.py", "B = 1\n")
        files = discover_files(tmp_path, paths=["src/repro/sub"])
        assert files == ["src/repro/sub/b.py"]


class TestSingleParse:
    def test_live_tree_parses_each_file_once(self, monkeypatch):
        parses = Counter()
        parse = ParsedModule.parse.__func__

        def counting_parse(cls, relpath, source):
            parses[relpath] += 1
            return parse(cls, relpath, source)

        monkeypatch.setattr(ParsedModule, "parse", classmethod(counting_parse))
        result = run_lint(REPO_ROOT)
        assert result.files_scanned > 0
        assert parses
        assert [path for path, n in parses.items() if n > 1] == []
