"""The ``lint`` subcommand end to end: exit codes, JSON report, baseline."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import REPORT_SCHEMA, main as lint_main
from repro.analysis.schema import parse_schema
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_violations_tree_exits_one(self, violations_root):
        code, out, _ = _run(["lint", "--root", str(violations_root)])
        assert code == 1
        assert "DET001" in out

    def test_clean_tree_exits_zero(self, clean_root):
        code, out, _ = _run(["lint", "--root", str(clean_root)])
        assert code == 0
        assert "0 finding(s)" in out

    def test_unknown_rule_exits_two(self, clean_root):
        code, _, err = _run(
            ["lint", "--root", str(clean_root), "--rule", "NOPE999"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_root_without_src_exits_two(self, tmp_path):
        code, _, err = _run(["lint", "--root", str(tmp_path)])
        assert code == 2
        assert "src/" in err

    def test_standalone_main_matches(self, violations_root, clean_root):
        assert lint_main(["--root", str(violations_root)], io.StringIO()) == 1
        assert lint_main(["--root", str(clean_root)], io.StringIO()) == 0
        err = io.StringIO()
        assert (
            lint_main(
                ["--root", str(clean_root), "--rule", "NOPE999"],
                io.StringIO(),
                err,
            )
            == 2
        )
        assert err.getvalue().startswith("error:")


class TestJsonReport:
    def test_json_document_shape(self, violations_root):
        code, out, _ = _run(
            ["lint", "--root", str(violations_root), "--format", "json"]
        )
        assert code == 1
        document = json.loads(out)
        assert document["schema"] == REPORT_SCHEMA
        assert parse_schema(document["schema"]) == ("duetlint", 1)
        assert document["clean"] is False
        assert document["counts"]["findings"] == len(document["findings"])
        assert {r["code"] for r in document["rules"]} >= {"DET001", "PAR001"}
        first = document["findings"][0]
        assert set(first) >= {"path", "line", "col", "rule", "message", "severity"}

    def test_output_file_written(self, clean_root, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = _run(
            ["lint", "--root", str(clean_root), "--output", str(report)]
        )
        assert code == 0
        document = json.loads(report.read_text())
        assert document["schema"] == REPORT_SCHEMA
        assert document["clean"] is True

    @pytest.mark.parametrize("flag", ["--output", "--graph-output"])
    def test_missing_output_directory_exits_two(self, flag, clean_root, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = _run(["lint", "--root", str(clean_root), flag, str(target)])
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} directory does not exist: {target.parent}\n"


class TestBaselineFlow:
    def _tree_with_violation(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("def _f():\n    try:\n        pass\n    except:\n        pass\n")
        return tmp_path

    def test_update_then_clean(self, tmp_path):
        root = self._tree_with_violation(tmp_path)
        assert _run(["lint", "--root", str(root)])[0] == 1

        code, out, _ = _run(["lint", "--root", str(root), "--baseline", "update"])
        assert code == 0
        assert "1 finding(s) grandfathered" in out
        assert (root / ".duetlint-baseline.json").exists()

        assert _run(["lint", "--root", str(root)])[0] == 0
        # --no-baseline resurrects the grandfathered finding.
        assert _run(["lint", "--root", str(root), "--no-baseline"])[0] == 1

    def _assert_update_rejected(self, root, *subset):
        baseline = root / ".duetlint-baseline.json"
        assert _run(["lint", "--root", str(root), "--baseline", "update"])[0] == 0
        before = baseline.read_bytes()
        code, out, err = _run(
            ["lint", "--root", str(root), "--baseline", "update", *subset]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        # a subset run would have dropped the other grandfathered entries
        assert baseline.read_bytes() == before

    def test_update_with_rule_subset_is_rejected(self, tmp_path):
        root = self._tree_with_violation(tmp_path)
        self._assert_update_rejected(root, "--rule", "DET001")

    def test_update_with_path_subset_is_rejected(self, tmp_path):
        root = self._tree_with_violation(tmp_path)
        self._assert_update_rejected(root, "src/repro/mod.py")


class TestDiscoverability:
    def test_list_rules(self):
        code, out, _ = _run(["lint", "--list-rules"])
        assert code == 0
        for rule in (
            "DET001", "DET002", "PAR001", "CLI001",
            "SCH001", "EXC001", "NUM001", "LAY001",
        ):
            assert rule in out

    def test_top_level_help_mentions_lint(self):
        help_text = build_parser().format_help()
        assert "lint" in help_text


class TestLiveRepo:
    def test_live_repo_lints_clean(self):
        """The acceptance gate: the real tree has no findings at all."""
        code, out, _ = _run(["lint", "--root", str(REPO_ROOT)])
        assert code == 0, f"live repo has lint findings:\n{out}"

    def test_committed_baseline_is_empty(self):
        document = json.loads(
            (REPO_ROOT / ".duetlint-baseline.json").read_text()
        )
        assert document["schema"] == "duetlint-baseline/1"
        assert document["entries"] == []
