"""Tests for the dynamic bench campaign (``BENCH_dynamic.json``).

The module-scoped campaign shrinks the grid (3 thresholds, 4 inputs,
60-request traces) via monkeypatched module constants -- the shape and
verdict logic are identical to the committed smoke document, just fast.
"""

import json

import pytest

from repro.analysis.schema import validate_schema
from repro.bench import (
    DYNAMIC_SCHEMA,
    deterministic_view,
    dynamic_scenarios,
    exit_thresholds,
    run_dynamic_bench,
)
from repro.bench import dynamic as bench_dynamic
from repro.core import cache


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setattr(bench_dynamic, "_THRESHOLDS", (0.0, 0.6, 1.0))
    patch.setattr(bench_dynamic, "_N_INPUTS_SMOKE", 4)
    patch.setattr(bench_dynamic, "_N_REQUESTS_SMOKE", 60)
    output = tmp_path_factory.mktemp("dynamic") / "BENCH_dynamic.json"
    try:
        yield run_dynamic_bench(smoke=True, output=output), output
    finally:
        patch.undo()


class TestGrid:
    def test_thresholds_ascend_to_always_late(self):
        thresholds = exit_thresholds()
        assert list(thresholds) == sorted(thresholds)
        assert thresholds[-1] == 1.0

    def test_overload_scenarios_differ_only_in_quality(self):
        by_name = {s["name"]: s for s in dynamic_scenarios(smoke=True)}
        ladder = dict(by_name["overload_ladder"])
        quality = dict(by_name["overload_quality"])
        assert ladder.pop("quality") is False
        assert quality.pop("quality") is True
        ladder.pop("name")
        quality.pop("name")
        assert ladder == quality


class TestDocument:
    def test_schema_and_shape(self, document):
        doc, output = document
        validate_schema(doc, DYNAMIC_SCHEMA)
        on_disk = json.loads(output.read_text())
        assert deterministic_view(on_disk) == deterministic_view(doc)
        assert set(doc) >= {
            "smoke", "root_seed", "fast_path", "thresholds", "pareto",
            "parity", "scenarios", "aggregates", "best_tradeoff",
            "dominance", "verdicts",
        }
        assert set(doc["verdicts"]) == {
            "pareto_win", "threshold_monotone", "static_parity",
            "goodput_dominance", "quality_bounded",
        }

    def test_pareto_records(self, document):
        doc, _ = document
        assert [r["model"] for r in doc["pareto"]] == [
            "alexnet", "resnet18", "vgg16",
        ]
        for record in doc["pareto"]:
            assert len(record["points"]) == 3
            full_point = record["points"][-1]
            assert full_point["threshold"] == 1.0
            assert full_point["cycle_reduction_vs_full"] == 1.0
            assert full_point["mean_estimated_drop"] == 0.0
            assert full_point["mean_exit_depth"] == 1.0
            assert record["threshold_monotone"]
            assert record["subpath"]["cycle_reduction_vs_full"] > 1.0
            table_exits = [row["exit"] for row in record["exit_table"]]
            assert table_exits[-1] == "full"

    def test_structural_verdicts_hold(self, document):
        doc, _ = document
        assert doc["verdicts"]["static_parity"] is True
        assert doc["verdicts"]["threshold_monotone"] is True
        assert doc["parity"]["static_parity"] is True
        assert {m["model"] for m in doc["parity"]["models"]} == {
            "alexnet", "resnet18", "vgg16", "lstm",
        }

    def test_dominance_block_is_consistent(self, document):
        doc, _ = document
        by_name = {s["name"]: s for s in doc["scenarios"]}
        dominance = doc["dominance"]
        assert dominance["ladder_goodput_rps"] == (
            by_name["overload_ladder"]["goodput_rps"]
        )
        assert dominance["quality_goodput_rps"] == (
            by_name["overload_quality"]["goodput_rps"]
        )
        assert doc["verdicts"]["goodput_dominance"] == (
            dominance["quality_goodput_rps"] > dominance["ladder_goodput_rps"]
        )
        assert by_name["overload_ladder"]["early_exits"] == 0

    def test_perf_block_reports_layer_cost_memo(self, document):
        """Exits re-run their backbone prefix, so the layer-cost memo
        serves most CONV layers after the first pricing."""
        doc, _ = document
        memo = doc["perf"]["cache"]["layer_cost"]
        assert memo["hits"] > 0
        assert memo["hits"] / (memo["hits"] + memo["misses"]) >= 0.5


class TestLayerCostMemo:
    """The campaign's tasks price identically with the memo off."""

    SEEDS = [11, 12, 13]

    @pytest.fixture
    def caches_off_then_on(self):
        cache.clear_caches()
        yield
        cache.set_cache_enabled(True)
        cache.clear_caches()

    def _both(self, fn, **kwargs):
        cache.set_cache_enabled(False)
        off = fn(**kwargs)
        assert cache.LAYER_COST_CACHE.stats()["misses"] == 0
        cache.set_cache_enabled(True)
        on = fn(**kwargs)
        assert cache.LAYER_COST_CACHE.stats()["hits"] > 0
        return off, on

    def test_pareto_sweep(self, caches_off_then_on):
        off, on = self._both(
            bench_dynamic._pareto_sweep,
            model_name="alexnet",
            thresholds=(0.0, 0.6, 1.0),
            input_seeds=self.SEEDS,
            width=0.5,
            fast_path=True,
        )
        assert off == on

    def test_parity_check(self, caches_off_then_on):
        off, on = self._both(
            bench_dynamic._parity_check,
            models=("alexnet", "lstm"),
            input_seeds=self.SEEDS,
            fast_path=True,
        )
        assert off == on
        assert on["static_parity"] is True
