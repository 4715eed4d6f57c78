"""Tests for the shared bench-document plumbing and the fault matrix."""

import json

import pytest

from repro.bench.document import (
    NONDETERMINISTIC_KEYS,
    append_history,
    deterministic_view,
    history_entry,
    perf_block,
    write_document,
)
from repro.bench.faults import FAULTS_SCHEMA, fault_matrix
from repro.parallel import ShardedRun


def _run(**overrides):
    base = dict(
        results=[], jobs=2, tasks=4, wall_s=2.0, worker_busy_s=3.0,
        cpu_count=8, start_method="fork", stats={"disk": {"hits": 5}},
    )
    base.update(overrides)
    return ShardedRun(**base)


class TestDeterministicView:
    def test_strips_nondeterministic_keys_recursively(self):
        document = {
            "schema": "x/1",
            "perf": {"wall_s": 1.0},
            "history": [{"run": 1}],
            "suites": [
                {"name": "a", "wall_time_s": {"fast": 0.1}, "cycles": 7},
            ],
            "nested": {"geomean_speedup_vs_slow_path": 3.0, "keep": 1},
        }
        view = deterministic_view(document)
        assert view == {
            "schema": "x/1",
            "suites": [{"name": "a", "cycles": 7}],
            "nested": {"keep": 1},
        }

    def test_non_container_values_pass_through(self):
        assert deterministic_view(42) == 42
        assert deterministic_view("perf") == "perf"

    def test_key_set_is_stable(self):
        """docs/performance.md documents this exact exclusion list."""
        assert NONDETERMINISTIC_KEYS == {
            "perf", "history", "wall_time_s", "wall_times_s",
            "speedup_vs_slow_path", "geomean_speedup_vs_slow_path",
        }


class TestPerfBlock:
    def test_renders_sharded_run(self):
        perf = perf_block(_run())
        assert perf["jobs"] == 2 and perf["tasks"] == 4
        assert perf["worker_efficiency"] == pytest.approx(3.0 / 4.0)
        assert perf["speedup_vs_serial_est"] == pytest.approx(1.5)
        assert perf["cache"] == {"disk": {"hits": 5}}
        assert perf["start_method"] == "fork"

    def test_speedup_is_null_on_fewer_cpus_than_jobs(self, tmp_path):
        perf = perf_block(_run(cpu_count=1))
        assert perf["speedup_vs_serial_est"] is None
        document = {"schema": "duet-faults/1", "perf": perf}
        path = tmp_path / "doc.json"
        append_history(
            document, path, FAULTS_SCHEMA,
            {"speedup_vs_serial_est": perf["speedup_vs_serial_est"]},
        )
        write_document(document, path, FAULTS_SCHEMA)
        on_disk = json.loads(path.read_text())
        assert on_disk["perf"]["speedup_vs_serial_est"] is None
        assert '"speedup_vs_serial_est": null' in path.read_text()
        # a null entry carries over into the next run's trail
        again = {"schema": "duet-faults/1"}
        append_history(again, path, FAULTS_SCHEMA, {})
        assert again["history"][0]["speedup_vs_serial_est"] is None


class TestHistory:
    def test_entry_picks_present_keys(self):
        assert history_entry({"a": 1, "b": 2}, ("a", "missing")) == {"a": 1}

    def test_ordinals_ascend_across_runs(self, tmp_path):
        path = tmp_path / "doc.json"
        first = {"schema": "duet-faults/1"}
        append_history(first, path, FAULTS_SCHEMA, {"x": 1})
        write_document(first, path, FAULTS_SCHEMA)
        second = {"schema": "duet-faults/1"}
        append_history(second, path, FAULTS_SCHEMA, {"x": 2})
        assert [e["run"] for e in second["history"]] == [1, 2]
        assert second["history"][-1]["x"] == 2

    def test_schema_bump_restarts_trail(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(
            {"schema": "duet-faults/999", "history": [{"run": 7}]}
        ))
        document = {"schema": "duet-faults/1"}
        append_history(document, path, FAULTS_SCHEMA, {})
        assert [e["run"] for e in document["history"]] == [1]

    def test_unparseable_previous_file_restarts_trail(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{torn")
        document = {"schema": "duet-faults/1"}
        append_history(document, path, FAULTS_SCHEMA, {})
        assert [e["run"] for e in document["history"]] == [1]

    def test_trail_is_capped(self, tmp_path):
        document = {"schema": "duet-faults/1", }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({
            "schema": "duet-faults/1",
            "history": [{"run": i} for i in range(1, 60)],
        }))
        append_history(document, path, FAULTS_SCHEMA, {}, limit=50)
        assert len(document["history"]) == 50
        assert document["history"][-1]["run"] == 60


class TestWriteDocument:
    def test_atomic_write_and_validation(self, tmp_path):
        path = tmp_path / "doc.json"
        write_document({"schema": "duet-faults/1"}, path, FAULTS_SCHEMA)
        assert json.loads(path.read_text()) == {"schema": "duet-faults/1"}
        assert not list(tmp_path.glob("*.tmp"))
        from repro.analysis.schema import SchemaError

        with pytest.raises(SchemaError):
            write_document({"schema": "wrong/1"}, path, FAULTS_SCHEMA)


class TestFaultMatrixEnumeration:
    def test_smoke_matrix_is_small_and_ordered(self):
        cells = fault_matrix(smoke=True)
        assert len(cells) == 4
        assert all(cell["guards"] is True for cell in cells)
        assert {cell["model"] for cell in cells} == {"alexnet", "lstm"}

    def test_full_matrix_covers_registry(self):
        from repro.models import MODEL_REGISTRY
        from repro.reliability.faults import CAMPAIGNS

        cells = fault_matrix(smoke=False)
        assert len(cells) == len(MODEL_REGISTRY) * len(CAMPAIGNS) * 2 * 2
        assert cells == fault_matrix(smoke=False)  # stable enumeration
