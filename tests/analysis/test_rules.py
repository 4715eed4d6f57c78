"""Per-rule positive/negative coverage against the committed fixture trees.

Each violation fixture file must be caught by *exactly* the rule it
demonstrates; the mirrored clean tree must produce zero findings.  Rules are
exercised through ``run_lint`` pointed at the fixture root, never at the
live repo, so these assertions stay stable as the real code evolves.
"""

from collections import Counter

from repro.analysis.engine import run_lint
from repro.analysis.rules import get_rules


def _codes_by_file(result):
    grouped = {}
    for finding in result.findings:
        grouped.setdefault(finding.path, []).append(finding.rule)
    return {path: Counter(codes) for path, codes in grouped.items()}


class TestViolationsTree:
    def test_each_fixture_caught_by_intended_rule(self, violations_root):
        result = run_lint(violations_root)
        grouped = _codes_by_file(result)

        assert grouped["src/repro/entropy.py"] == Counter({"DET001": 3})
        assert grouped["src/repro/dead_seed.py"] == Counter({"DET002": 1})
        assert grouped["src/repro/swallow.py"] == Counter({"EXC001": 2})
        assert grouped["src/repro/float_eq.py"] == Counter({"NUM001": 2})
        assert grouped["src/repro/cli.py"] == Counter({"CLI001": 2})
        assert grouped["src/repro/bench/writer.py"] == Counter({"SCH001": 3})
        assert grouped["src/repro/sim/executor.py"] == Counter({"PAR001": 2})
        assert grouped["src/repro/serving/retrier.py"] == Counter({"REL003": 2})

        # No fixture file trips a rule it was not written to demonstrate.
        assert set(grouped) == {
            "src/repro/entropy.py",
            "src/repro/dead_seed.py",
            "src/repro/swallow.py",
            "src/repro/float_eq.py",
            "src/repro/cli.py",
            "src/repro/bench/writer.py",
            "src/repro/sim/executor.py",
            "src/repro/serving/retrier.py",
        }

    def test_findings_carry_positions_and_severity(self, violations_root):
        result = run_lint(violations_root)
        for finding in result.findings:
            assert finding.line >= 1
            assert finding.col >= 0
            assert finding.severity in ("warning", "error")
            assert finding.message
            formatted = finding.format()
            assert finding.path in formatted
            assert finding.rule in formatted

    def test_rule_filter_restricts_findings(self, violations_root):
        result = run_lint(violations_root, rules=get_rules(["DET001"]))
        assert result.findings
        assert {f.rule for f in result.findings} == {"DET001"}


class TestCleanTree:
    def test_clean_tree_has_zero_findings(self, clean_root):
        result = run_lint(clean_root)
        assert result.findings == []
        assert result.files_scanned > 0
        assert result.exit_code() == 0

    def test_clean_tree_scans_every_fixture_module(self, clean_root):
        result = run_lint(clean_root)
        # src/ modules only by default roots (plus tools/ if present).
        assert result.files_scanned >= 7
