"""Tests for ``tools/compare_bench.py`` -- the determinism-view differ."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", REPO_ROOT / "tools" / "compare_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("compare_bench", module)
    spec.loader.exec_module(module)
    return module


def _dynamic_document(goodput: float, drop: float, dominance: bool) -> dict:
    return {
        "schema": "duet-dynamic/1",
        "scenarios": [
            {
                "name": "overload_quality",
                "goodput_rps": goodput,
                "mean_exit_depth": 0.9,
                "mean_quality_drop": drop,
            },
            {
                "name": "overload_ladder",
                "goodput_rps": 30.0,
                "mean_exit_depth": 1.0,
                "mean_quality_drop": 0.0,
            },
        ],
        "verdicts": {"goodput_dominance": dominance},
        "perf": {"wall_s": 1.0},
    }


def _serve_document(throughput: float, reject: float, p99: float) -> dict:
    return {
        "schema": "duet-serve/1",
        "scenarios": [
            {
                "name": "steady",
                "summary": {
                    "throughput_rps": throughput,
                    "reject_rate": reject,
                    "degrade_rate": 0.05,
                    "latency_ms": {"p99": p99},
                },
            }
        ],
        "perf": {"wall_s": 1.0},
    }


def _chaos_document(goodput: float, retries: int, floor: bool) -> dict:
    return {
        "schema": "duet-chaos/1",
        "cells": [
            {
                "policy": "hedge",
                "fault_rate": 0.1,
                "summary": {
                    "goodput_rps": goodput,
                    "success_rate": 0.99,
                    "retries": retries,
                    "latency_ms": {"p99": 55.0},
                },
            }
        ],
        "verdicts": {"goodput_floor": floor},
        "perf": {"wall_s": 1.0},
    }


def _fleet_document(goodput: float, peak: int) -> dict:
    return {
        "schema": "duet-fleet/1",
        "scenarios": [
            {
                "name": "diurnal",
                "goodput_rps": goodput,
                "peak_servers": peak,
                "summary": {
                    "reject_rate": 0.01,
                    "latency_ms": {"p99": 60.0},
                },
            }
        ],
        "perf": {"wall_s": 1.0},
    }


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestCompare:
    def test_equal_views_exit_zero(self, compare_bench, tmp_path, capsys):
        a = _write(tmp_path, "a.json", _dynamic_document(66.0, 0.006, True))
        b = _write(tmp_path, "b.json", _dynamic_document(66.0, 0.006, True))
        # only the stripped perf block differs
        assert compare_bench.main([a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_views_exit_one(self, compare_bench, tmp_path):
        a = _write(tmp_path, "a.json", {"schema": "duet-fleet/1", "x": 1})
        b = _write(tmp_path, "b.json", {"schema": "duet-fleet/1", "x": 2})
        assert compare_bench.main([a, b]) == 1

    def test_reordered_keys_differ(self, compare_bench, tmp_path, capsys):
        """The contract is byte identity: the same keys in another order
        are a different document."""
        left = {"schema": "duet-faults/1", "x": {"p": 1, "q": 2}}
        right = {"schema": "duet-faults/1", "x": {"q": 2, "p": 1}}
        a = _write(tmp_path, "a.json", left)
        b = _write(tmp_path, "b.json", right)
        assert compare_bench.main([a, b]) == 1
        assert "documents differ at $.x " in capsys.readouterr().out

    def test_dynamic_mismatch_prints_scenario_deltas(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", _dynamic_document(60.0, 0.004, True))
        b = _write(tmp_path, "b.json", _dynamic_document(66.5, 0.006, False))
        assert compare_bench.main([a, b]) == 1
        out = capsys.readouterr().out
        assert "per-scenario deltas" in out
        assert "overload_quality: goodput_rps +6.5" in out
        assert "mean_quality_drop +0.0020" in out
        assert "verdicts flipped: goodput_dominance" in out

    def test_uncovered_schema_mismatch_stays_bare(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", {"schema": "duet-faults/1", "x": 1})
        b = _write(tmp_path, "b.json", {"schema": "duet-faults/1", "x": 2})
        compare_bench.main([a, b])
        assert "per-scenario deltas" not in capsys.readouterr().out

    def test_mismatched_schemas_stay_bare(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", {"schema": "duet-fleet/1", "x": 1})
        b = _write(tmp_path, "b.json", {"schema": "duet-serve/1", "x": 2})
        compare_bench.main([a, b])
        assert "per-scenario deltas" not in capsys.readouterr().out

    def test_serve_mismatch_prints_scenario_deltas(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", _serve_document(900.0, 0.01, 42.0))
        b = _write(tmp_path, "b.json", _serve_document(925.5, 0.03, 44.25))
        assert compare_bench.main([a, b]) == 1
        out = capsys.readouterr().out
        assert (
            "steady: summary.throughput_rps +25.5, summary.reject_rate "
            "+0.0200, summary.degrade_rate +0.0000, "
            "summary.latency_ms.p99 +2.25" in out
        )

    def test_chaos_mismatch_prints_cell_deltas(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", _chaos_document(800.0, 12, True))
        b = _write(tmp_path, "b.json", _chaos_document(780.5, 15, False))
        assert compare_bench.main([a, b]) == 1
        out = capsys.readouterr().out
        assert "hedge@0.1: summary.goodput_rps -19.5" in out
        assert "summary.retries +3" in out
        assert "verdicts flipped: goodput_floor" in out

    def test_fleet_mismatch_prints_scenario_deltas(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", _fleet_document(1200.0, 6))
        b = _write(tmp_path, "b.json", _fleet_document(1180.0, 8))
        assert compare_bench.main([a, b]) == 1
        out = capsys.readouterr().out
        assert "diurnal: goodput_rps -20.0" in out
        assert "peak_servers +2" in out

    def test_record_present_in_one_side_only(
        self, compare_bench, tmp_path, capsys
    ):
        left = _fleet_document(1200.0, 6)
        right = _fleet_document(1200.0, 6)
        right["scenarios"].append(dict(right["scenarios"][0], name="burst"))
        a = _write(tmp_path, "a.json", left)
        b = _write(tmp_path, "b.json", right)
        assert compare_bench.main([a, b]) == 1
        assert "burst: present only in B" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, compare_bench, tmp_path):
        a = _write(tmp_path, "a.json", {"schema": "duet-fleet/1"})
        assert compare_bench.main([a, str(tmp_path / "nope.json")]) == 2
        assert compare_bench.main([a]) == 2

    def test_non_object_document_is_usage_error(
        self, compare_bench, tmp_path, capsys
    ):
        a = _write(tmp_path, "a.json", [1, 2])
        assert compare_bench.main([a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
