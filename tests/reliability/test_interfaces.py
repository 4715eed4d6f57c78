"""Failure-injection tests: corrupted maps, degenerate workloads, bad input.

The dual-module architecture's correctness contract is asymmetric: a
corrupted switching map may *lose accuracy* (wrongly-skipped neurons) but
must never corrupt the computed values or crash the pipeline.  These tests
inject faults at each interface and check the system degrades the way the
hardware would.
"""

import numpy as np
import pytest

from repro.core import (
    ApproximateLinear,
    DualModuleLinear,
    distill_linear,
)
from repro.models import ConvSpec, get_model_spec
from repro.nn import Linear
from repro.nn import functional as F
from repro.sim import DuetAccelerator
from repro.workloads import cnn_workloads
from repro.workloads.sparsity import CnnLayerWorkload


@pytest.fixture(scope="module")
def dual_layer():
    rng = np.random.default_rng(55)
    lin = Linear(32, 16, rng=rng)
    ap = ApproximateLinear(32, 16, 10, rng=rng)
    distill_linear(lin, ap, rng.normal(size=(300, 32)))
    return lin, ap


class TestCorruptedSwitchingMaps:
    def test_bit_flipped_omap_never_corrupts_computed_values(self, rng):
        """Flipping OMap bits changes WHICH outputs are computed, never
        the value of any computed output."""
        spec = ConvSpec("c", 4, 8, 3, 1, 1, 8, 8)
        from repro.sim.functional import FunctionalExecutorArray
        from repro.sim.config import DuetConfig

        weight = rng.normal(size=(8, 4, 3, 3))
        x = rng.normal(size=(4, 8, 8))
        omap = (rng.random((8, 8, 8)) > 0.5).astype(np.uint8)
        flips = rng.random(omap.shape) < 0.2
        corrupted = np.where(flips, 1 - omap, omap).astype(np.uint8)

        cfg = DuetConfig(executor_rows=4, executor_cols=4)
        clean = FunctionalExecutorArray(cfg).run_conv(
            x, weight, omap, stride=1, padding=1
        )
        bad = FunctionalExecutorArray(cfg).run_conv(
            x, weight, corrupted, stride=1, padding=1
        )
        both = (omap & corrupted).astype(bool)
        np.testing.assert_allclose(
            clean.output[both], bad.output[both], atol=1e-10
        )

    def test_all_zero_omap_runs(self):
        """A fully-insensitive map is legal: the Executor does nothing."""
        spec = get_model_spec("alexnet")
        workloads = cnn_workloads(spec)
        zeroed = [
            CnnLayerWorkload(
                w.spec, np.zeros_like(w.omap), w.imap.copy()
            )
            for w in workloads
        ]
        report = DuetAccelerator(stage="DUET").run(spec, workloads=zeroed)
        assert report.executed_macs == 0
        assert report.total_cycles > 0  # DRAM still streams

    def test_all_one_omap_equals_base_work(self):
        """A fully-sensitive map degrades DUET to dense-plus-overhead."""
        spec = get_model_spec("alexnet")
        workloads = cnn_workloads(spec)
        ones = [
            CnnLayerWorkload(w.spec, np.ones_like(w.omap), w.imap.copy())
            for w in workloads
        ]
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=ones)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=ones)
        # every output is computed; the only work DUET still drops on a
        # dense-input layer is the padded-zero border MACs (a real saving
        # BASE's dense accounting includes)
        ratio = duet.layers[0].executed_macs / base.layers[0].executed_macs
        assert 0.97 < ratio <= 1.0


class TestDegenerateInputs:
    def test_dual_layer_constant_input(self, dual_layer):
        lin, ap = dual_layer
        dual = DualModuleLinear(lin, ap, "relu", 0.0)
        out, report = dual(np.zeros((4, 32)))
        assert np.isfinite(out).all()
        assert 0.0 <= report.savings.sensitive_fraction <= 1.0

    def test_dual_layer_huge_inputs(self, dual_layer):
        """1e6-scale inputs must not overflow the quantized path."""
        lin, ap = dual_layer
        dual = DualModuleLinear(lin, ap, "relu", 0.0)
        out, _ = dual(np.full((2, 32), 1e6))
        assert np.isfinite(out).all()

    def test_single_output_layer(self, rng):
        lin = Linear(8, 1, rng=rng)
        ap = ApproximateLinear(8, 1, 2, rng=rng)
        distill_linear(lin, ap, rng.normal(size=(100, 8)))
        dual = DualModuleLinear(lin, ap, "relu", 0.0)
        out, report = dual(rng.normal(size=(3, 8)))
        assert out.shape == (3, 1)

    def test_tiny_conv_workload(self):
        """1x1 spatial extent exercises every tile-padding edge."""
        spec = ConvSpec("c", 1, 1, 1, 1, 0, 1, 1)
        wl = CnnLayerWorkload(
            spec,
            np.ones((1, 1, 1), dtype=np.uint8),
            np.ones((1, 1, 1), dtype=np.uint8),
        )
        from repro.models.layer_spec import ModelSpec

        model = ModelSpec("tiny", "cnn", [spec])
        report = DuetAccelerator(stage="DUET").run(model, workloads=[wl])
        assert report.total_cycles > 0


class TestAccountingUnderFaults:
    def test_flipped_maps_keep_accounting_consistent(self, rng):
        """Whatever the map, executed MACs never exceed dense MACs."""
        spec = get_model_spec("alexnet")
        workloads = []
        for w in cnn_workloads(spec):
            flips = rng.random(w.omap.shape) < 0.3
            flipped = np.where(flips, 1 - w.omap, w.omap)
            # sampled maps are read-only; a rewritten map is a new
            # workload without a recipe
            workloads.append(CnnLayerWorkload(w.spec, flipped, w.imap))
        report = DuetAccelerator(stage="DUET").run(spec, workloads=workloads)
        assert 0 <= report.executed_macs <= report.dense_macs
        for layer in report.layers:
            assert layer.total_cycles >= max(
                layer.executor_cycles, layer.memory_cycles
            ) - 1
