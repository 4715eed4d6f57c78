"""Tests for the functional Executor-array simulation.

These validate the analytical cycle model against ground-truth execution:
the functional array really performs the tagged MACs, so numerical
equivalence and cycle trends are checked end to end.
"""

import numpy as np
import pytest

from repro.models.layer_spec import ConvSpec
from repro.nn.layers import Conv2d
from repro.sim.config import DuetConfig
from repro.sim.functional import FunctionalExecutorArray
from repro.workloads.sparsity import CnnLayerWorkload


@pytest.fixture
def small_config():
    return DuetConfig(executor_rows=4, executor_cols=4)


@pytest.fixture
def layer(rng):
    conv = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
    x = rng.normal(size=(3, 6, 6))
    return conv, x


class TestNumericalEquivalence:
    def test_dense_matches_conv2d(self, small_config, layer, rng):
        conv, x = layer
        array = FunctionalExecutorArray(small_config)
        omap = np.ones((8, 6, 6), dtype=np.uint8)
        result = array.run_conv(
            x, conv.weight.data, omap, stride=1, padding=1
        )
        reference = conv(x[None])[0] - conv.bias.data[:, None, None]
        np.testing.assert_allclose(result.output, reference, atol=1e-10)

    def test_omap_skipping_zeroes_and_preserves(self, small_config, layer, rng):
        conv, x = layer
        array = FunctionalExecutorArray(small_config)
        omap = (rng.random((8, 6, 6)) > 0.5).astype(np.uint8)
        result = array.run_conv(x, conv.weight.data, omap, stride=1, padding=1)
        reference = conv(x[None])[0] - conv.bias.data[:, None, None]
        live = omap.astype(bool)
        np.testing.assert_allclose(result.output[live], reference[live], atol=1e-10)
        assert np.all(result.output[~live] == 0.0)

    def test_imap_skipping_is_lossless(self, small_config, layer, rng):
        """Skipping tagged-zero inputs equals convolving the masked input."""
        conv, x = layer
        array = FunctionalExecutorArray(small_config)
        omap = np.ones((8, 6, 6), dtype=np.uint8)
        imap = (rng.random((3, 6, 6)) > 0.4).astype(np.uint8)
        result = array.run_conv(
            x, conv.weight.data, omap, imap=imap, stride=1, padding=1
        )
        masked = x * imap
        reference = conv(masked[None])[0] - conv.bias.data[:, None, None]
        np.testing.assert_allclose(result.output, reference, atol=1e-10)


class TestCycleBehaviour:
    def test_skipping_saves_cycles(self, small_config, layer, rng):
        conv, x = layer
        dense_omap = np.ones((8, 6, 6), dtype=np.uint8)
        sparse_omap = (rng.random((8, 6, 6)) > 0.6).astype(np.uint8)
        dense = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, dense_omap, stride=1, padding=1
        )
        sparse = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, sparse_omap, stride=1, padding=1
        )
        assert sparse.total_cycles < dense.total_cycles
        assert sparse.macs_executed < dense.macs_executed
        assert sparse.macs_skipped > 0

    def test_step_latency_is_max_of_rows(self, small_config, layer, rng):
        """Total cycles never undercut the busiest row (synchronisation)."""
        conv, x = layer
        omap = (rng.random((8, 6, 6)) > 0.5).astype(np.uint8)
        result = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, omap, stride=1, padding=1
        )
        assert result.total_cycles >= result.row_cycles.max()

    def test_adaptive_schedule_reduces_cycles(self, small_config, rng):
        """A sorted channel schedule beats the naive one when channel
        workloads are imbalanced -- the adaptive-mapping claim, verified
        on ground-truth execution."""
        conv = Conv2d(2, 8, 3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(2, 6, 6))
        # strongly imbalanced channels: alternating dense/empty maps
        omap = np.zeros((8, 6, 6), dtype=np.uint8)
        omap[::2] = 1
        naive = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, omap, stride=1, padding=1
        )
        counts = omap.reshape(8, -1).sum(axis=1)
        order = np.argsort(-counts, kind="stable")
        sorted_schedule = [list(order[:4]), list(order[4:])]
        adaptive = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, omap, stride=1, padding=1,
            schedule=sorted_schedule,
        )
        assert adaptive.total_cycles < naive.total_cycles
        # same work, different packing
        assert adaptive.macs_executed == naive.macs_executed

    def test_noc_counts_deliveries(self, small_config, layer, rng):
        conv, x = layer
        omap = np.ones((8, 6, 6), dtype=np.uint8)
        result = FunctionalExecutorArray(small_config).run_conv(
            x, conv.weight.data, omap, stride=1, padding=1
        )
        assert result.noc.stats.y_bus_transactions > 0
        assert result.noc.stats.receivers_activated > 0


class TestModelCrossValidation:
    def test_cycle_model_tracks_functional_ground_truth(self, rng):
        """The analytical ExecutorModel and the functional array must agree
        on the *relative* cost of dense vs switched execution."""
        from repro.sim.executor import ExecutorModel

        cfg = DuetConfig(
            executor_rows=4, executor_cols=4, executor_step_positions=36,
        )
        conv = Conv2d(2, 8, 3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(2, 6, 6))
        spec = ConvSpec("c", 2, 8, 3, 1, 1, 6, 6)
        omap = (rng.random((8, 6, 6)) > 0.5).astype(np.uint8)
        imap = np.ones((2, 6, 6), dtype=np.uint8)
        workload = CnnLayerWorkload(spec, omap, imap)

        functional_dense = FunctionalExecutorArray(cfg).run_conv(
            x, conv.weight.data, np.ones_like(omap), stride=1, padding=1
        )
        functional_sparse = FunctionalExecutorArray(cfg).run_conv(
            x, conv.weight.data, omap, stride=1, padding=1
        )
        import dataclasses

        model_dense = ExecutorModel(
            dataclasses.replace(cfg, enable_output_switching=False)
        ).cnn_layer(workload)
        model_sparse = ExecutorModel(
            dataclasses.replace(
                cfg, enable_input_switching=False, enable_adaptive_mapping=False
            )
        ).cnn_layer(workload)

        functional_ratio = functional_sparse.total_cycles / functional_dense.total_cycles
        model_ratio = model_sparse.cycles / model_dense.cycles
        assert functional_ratio == pytest.approx(model_ratio, abs=0.15)
