"""Exit-aware pricing: quality model shape and cycle-table invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamic.costmodel import (
    EXIT_PRICING,
    ExitCostModel,
    ExitPricing,
    estimated_accuracy_drop,
)
from repro.dynamic.exits import EXIT_REGISTRY, FINAL_EXIT, early_exit_model


class TestExitPricing:
    def test_every_registered_backbone_is_priced(self):
        """No registered backbone serves unpriced exits."""
        assert set(EXIT_REGISTRY) <= set(EXIT_PRICING)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_drop": -0.1, "exponent": 1.0},
            {"max_drop": 1.1, "exponent": 1.0},
            {"max_drop": 0.05, "exponent": 0.0},
            {"max_drop": 0.05, "exponent": -1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExitPricing(**kwargs)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_drop_decreases_with_depth(self, one, other):
        pricing = ExitPricing(max_drop=0.05, exponent=1.5)
        shallow, deep = sorted((one, other))
        assert pricing.drop(deep) <= pricing.drop(shallow)

    def test_full_depth_is_free(self):
        for name, pricing in EXIT_PRICING.items():
            assert pricing.drop(1.0) == 0.0
            assert estimated_accuracy_drop(name, 1.0) == 0.0

    def test_unpriced_model_raises(self):
        with pytest.raises(KeyError):
            estimated_accuracy_drop("lstm", 0.5)

    def test_out_of_range_depth_rejected(self):
        with pytest.raises(ValueError):
            ExitPricing(max_drop=0.05, exponent=1.5).drop(1.5)


class TestExitTable:
    @pytest.fixture(scope="class")
    def table(self):
        return ExitCostModel().exit_table("resnet18", workload_seed=7)

    def test_rows_cover_every_exit_full_last(self, table):
        variant = early_exit_model("resnet18")
        assert [row["exit"] for row in table] == list(variant.exit_names)
        assert table[-1]["exit"] == FINAL_EXIT

    def test_full_row_degenerates_to_the_static_cost(self, table):
        full = table[-1]
        assert full["depth_fraction"] == 1.0
        assert full["cycle_reduction_vs_full"] == 1.0
        assert full["estimated_accuracy_drop"] == 0.0

    def test_side_exits_cost_less_and_lose_more(self, table):
        cycles = [row["total_cycles"] for row in table]
        drops = [row["estimated_accuracy_drop"] for row in table]
        assert cycles == sorted(cycles)  # deeper exit, more cycles
        assert drops == sorted(drops, reverse=True)  # deeper exit, less loss
        for row in table[:-1]:
            assert row["cycle_reduction_vs_full"] >= 1.0

    def test_paper_style_win_exists(self, table):
        """The acceptance bar: a >=1.5x cheaper exit under 2% drop."""
        assert any(
            row["cycle_reduction_vs_full"] >= 1.5
            and row["estimated_accuracy_drop"] <= 0.02
            for row in table
        )
