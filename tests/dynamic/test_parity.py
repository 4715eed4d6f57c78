"""Degeneration contract: always-late dynamic pricing is bit-identical
to the static executor, for every registered backbone.

Every ``EXIT_REGISTRY`` backbone -- alexnet, resnet18, vgg16 -- is
exercised here by name, and
``test_this_suite_covers_the_whole_registry`` fails when the registry
and this list drift apart.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import early_exit_variants
from repro.dynamic.decision import ALWAYS_LATE
from repro.dynamic.exits import FINAL_EXIT, early_exit_model, truncated_spec
from repro.dynamic.executor import DynamicBatchExecutor, DynamicShardedExecutor
from repro.sim.batching import BatchExecutor
from repro.sim.sharding import ShardedExecutor

BACKBONES = ("alexnet", "resnet18", "vgg16")


def test_this_suite_covers_the_whole_registry():
    """The parametrize list below is exactly the registry."""
    assert early_exit_variants() == BACKBONES


@pytest.mark.parametrize("model", BACKBONES)
class TestDegeneration:
    def test_full_exit_is_the_original_spec_object(self, model):
        variant = early_exit_model(model)
        assert truncated_spec(variant, FINAL_EXIT) is variant.spec

    def test_always_late_prices_bit_identical_to_static(self, model):
        seeds = [0, 7, 11]
        expected = BatchExecutor().execute(model, seeds)
        actual = DynamicBatchExecutor().execute(
            model, seeds, threshold=ALWAYS_LATE
        )
        assert actual.service_cycles == expected.service_cycles
        for got, want in zip(actual.reports, expected.reports):
            assert got.total_cycles == want.total_cycles
            assert got.compute_cycles == want.compute_cycles
            assert got.memory_cycles == want.memory_cycles
            assert got.energy.total == want.energy.total
        assert all(not d.early for d in actual.decisions)
        assert all(d.exit_name == FINAL_EXIT for d in actual.decisions)

    def test_always_late_sharded_prices_bit_identical(self, model):
        """PRC001's contract for DynamicShardedExecutor: at ALWAYS_LATE
        the exit-aware sharded executor degenerates to the static one."""
        seeds = [0, 7, 11]
        expected = ShardedExecutor().execute(model, seeds)
        actual = DynamicShardedExecutor().execute(
            model, seeds, threshold=ALWAYS_LATE
        )
        assert actual.service_cycles == expected.service_cycles
        assert actual.shard_busy_cycles == expected.shard_busy_cycles
        for got, want in zip(actual.reports, expected.reports):
            assert got.total_cycles == want.total_cycles
            assert got.energy.total == want.energy.total
        assert all(not d.early for d in actual.decisions)


class TestStaticModelsPassThrough:
    def test_unregistered_model_gets_no_decisions(self):
        result = DynamicBatchExecutor().execute("lstm", [0, 1])
        assert result.decisions == [None, None]

    def test_unregistered_model_prices_bit_identical(self):
        seeds = [3, 5]
        expected = BatchExecutor().execute("lstm", seeds)
        actual = DynamicBatchExecutor().execute("lstm", seeds, threshold=0.0)
        assert actual.service_cycles == expected.service_cycles
        for got, want in zip(actual.reports, expected.reports):
            assert got.total_cycles == want.total_cycles
            assert got.energy.total == want.energy.total


class TestAlwaysLateProperty:
    @settings(deadline=None, max_examples=15)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_always_late_matches_static_for_any_seeds(self, seeds):
        """The parity holds for arbitrary workload seeds, not a lucky few."""
        expected = BatchExecutor().execute("alexnet", seeds)
        actual = DynamicBatchExecutor().execute(
            "alexnet", seeds, threshold=ALWAYS_LATE
        )
        assert actual.service_cycles == expected.service_cycles
        assert [r.total_cycles for r in actual.reports] == [
            r.total_cycles for r in expected.reports
        ]
        assert [r.energy.total for r in actual.reports] == [
            r.energy.total for r in expected.reports
        ]
