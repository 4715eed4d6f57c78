"""Tests for the `python -m repro faults` CLI command."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestFaultsCommand:
    def test_smoke_campaign_reports_pass(self):
        code, out, err = run_cli("faults", "--model", "resnet18")
        assert code == 0
        assert err == ""
        assert "campaign" in out
        assert "smoke" in out
        assert "degradation" in out
        assert "values-never-corrupted invariant: PASS" in out

    def test_no_guards_severe_reports_violation(self):
        code, out, _ = run_cli(
            "faults", "--model", "resnet18", "--campaign", "severe",
            "--no-guards",
        )
        assert code == 0  # reporting a violation is not a CLI failure
        assert "VIOLATED" in out
        assert "PASS" not in out

    def test_output_is_deterministic(self):
        a = run_cli("faults", "--model", "alexnet", "--seed", "3")
        b = run_cli("faults", "--model", "alexnet", "--seed", "3")
        assert a == b

    def test_stage_flag_starts_lower(self):
        code, out, _ = run_cli(
            "faults", "--model", "alexnet", "--stage", "BASE"
        )
        assert code == 0
        assert "BASE" in out

    def test_rnn_model_supported(self):
        code, out, _ = run_cli("faults", "--model", "lstm")
        assert code == 0
        assert "invariant: PASS" in out

    def test_unknown_campaign_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("faults", "--model", "alexnet", "--campaign", "meltdown")

    def test_unknown_model_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("faults", "--model", "resnet999")

    def test_no_model_runs_the_matrix(self, tmp_path, monkeypatch):
        """Omitting ``--model`` runs the sharded campaign matrix and
        writes the duet-faults document."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            "faults", "--smoke", "--output", str(tmp_path / "m.json")
        )
        assert code == 0
        assert err == ""
        assert "values-never-corrupted invariant: PASS across" in out
        assert (tmp_path / "m.json").exists()

    def test_matrix_summary_without_speedup_estimate(self, tmp_path, monkeypatch):
        """On fewer CPUs than jobs the perf block carries a null speedup
        estimate; the summary line prints ``n/a`` for it."""
        from repro.parallel import ShardedRun

        monkeypatch.setattr(
            ShardedRun, "speedup_vs_serial_est", property(lambda self: None)
        )
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            "faults", "--smoke", "--output", str(tmp_path / "m.json")
        )
        assert code == 0 and err == ""
        assert "n/a vs serial est." in out

    def test_no_guards_requires_a_model(self):
        code, _, err = run_cli("faults", "--no-guards")
        assert code == 2
        assert "error:" in err
