"""Tests for the shared bench-document plumbing and the fault matrix."""

import json

import pytest

from repro.bench.document import (
    NONDETERMINISTIC_KEYS,
    append_history,
    deterministic_view,
    perf_block,
    run_campaign,
    write_document,
)
from repro.bench.faults import FAULTS_SCHEMA, fault_matrix
from repro.parallel import CampaignTask, ShardedRun


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


def _square(x: int) -> dict:
    """A top-level task so forked workers can pickle it."""
    return {"x": x, "square": x * x, "wall_time_s": 0.5}


def _campaign(path=None, with_perf=True, history_keys=("smoke",), progress=None):
    tasks = [
        CampaignTask(fn=_square, kwargs={"x": x}) for x in (3, 1, 2)
    ]

    def merge(records):
        return {
            "schema": FAULTS_SCHEMA,
            "smoke": True,
            "records": records,
            "verdicts": {"ordered": [r["x"] for r in records] == [3, 1, 2]},
        }

    return run_campaign(
        FAULTS_SCHEMA, tasks, merge, jobs=1, output=path,
        with_perf=with_perf, progress=progress, history_keys=history_keys,
    )


class TestRunCampaign:
    def test_progress_sees_records_in_task_order(self, tmp_path):
        seen = []
        document = _campaign(tmp_path / "doc.json", progress=seen.append)
        assert [r["x"] for r in seen] == [3, 1, 2]
        assert document["records"] == seen

    def test_history_entry_carries_verdicts_and_perf(self, tmp_path):
        path = tmp_path / "doc.json"
        document = _campaign(path)
        entry = document["history"][-1]
        assert entry["run"] == 1 and entry["smoke"] is True
        assert entry["ordered"] is True
        assert entry["tasks"] == 3 and entry["jobs"] == 1
        for key in ("wall_s", "worker_efficiency", "speedup_vs_serial_est"):
            assert entry[key] == document["perf"][key]
        assert json.loads(path.read_text()) == document
        again = _campaign(path)
        assert [e["run"] for e in again["history"]] == [1, 2]

    def test_no_perf_writes_the_deterministic_view(self, tmp_path):
        path = tmp_path / "doc.json"
        document = _campaign(path, with_perf=False)
        assert "perf" not in document and "history" not in document
        assert all("wall_time_s" not in r for r in document["records"])
        assert json.loads(path.read_text()) == document

    def test_no_output_writes_nothing(self, tmp_path):
        document = _campaign(None)
        assert document["history"][0]["run"] == 1
        assert not list(tmp_path.iterdir())


class TestHistory:
    def test_entry_picks_present_keys(self):
        entry = _campaign(history_keys=("smoke", "missing"))["history"][-1]
        assert "smoke" in entry and "missing" not in entry

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
