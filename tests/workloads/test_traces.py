"""Tests for measured-workload extraction from dualized proxies."""

import numpy as np
import pytest

from repro.models.layer_spec import ConvSpec
from repro.models.dualize import DualizedCNN
from repro.models.proxies import proxy_alexnet, train_classifier
from repro.nn.data import GaussianMixtureImages
from repro.workloads import trace_cnn_workloads
from repro.workloads.traces import workload_from_maps


@pytest.fixture(scope="module")
def dualized():
    rng = np.random.default_rng(9)
    ds = GaussianMixtureImages(num_classes=4, noise=0.5)
    model = proxy_alexnet(num_classes=4, rng=rng)
    train_classifier(model, ds, steps=20, rng=rng)
    cal, _ = ds.sample(8, rng)
    dual = DualizedCNN.build(model, cal, rng=rng)
    dual.set_thresholds_by_fraction(0.5, cal)
    return dual, ds


class TestWorkloadFromMaps:
    def test_wraps_and_validates(self):
        spec = ConvSpec("c", 2, 4, 3, 1, 1, 6, 6)
        omap = np.ones((4, 6, 6), dtype=np.uint8)
        imap = np.ones((2, 6, 6), dtype=np.uint8)
        wl = workload_from_maps(spec, omap, imap)
        assert wl.sensitive_fraction == 1.0

    @pytest.mark.parametrize("bad", [2, 256, 0.5])
    def test_rejects_non_binary_maps(self, bad):
        # 256 would wrap to 0 under a uint8 cast: checked before any cast
        spec = ConvSpec("c", 2, 4, 3, 1, 1, 6, 6)
        imap = np.ones((2, 6, 6))
        imap[1, 2, 3] = bad
        with pytest.raises(ValueError, match="imap holds values outside"):
            workload_from_maps(spec, np.ones((4, 6, 6), dtype=np.uint8), imap)

    def test_rejects_bad_shapes(self):
        spec = ConvSpec("c", 2, 4, 3, 1, 1, 6, 6)
        with pytest.raises(ValueError):
            workload_from_maps(
                spec, np.ones((4, 5, 5), dtype=np.uint8),
                np.ones((2, 6, 6), dtype=np.uint8),
            )


class TestTraceCnnWorkloads:
    def test_one_workload_per_conv(self, dualized, rng):
        dual, ds = dualized
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        assert len(workloads) == len(dual.slots)

    def test_shapes_match_live_layers(self, dualized, rng):
        dual, ds = dualized
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        for wl, slot in zip(workloads, dual.slots):
            conv = slot.dual.accurate
            assert wl.spec.out_channels == conv.out_channels
            assert wl.omap.shape[0] == conv.out_channels

    def test_traced_sparsity_reflects_thresholds(self, dualized, rng):
        """Thresholds tuned to ~0.5 insensitive should show up in the maps
        (the first layer's IMap is the raw image: fully dense)."""
        dual, ds = dualized
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        assert workloads[0].input_density == 1.0
        mean_sensitive = np.mean([w.sensitive_fraction for w in workloads])
        assert 0.2 < mean_sensitive < 0.8

    def test_traced_workloads_run_in_simulator(self, dualized, rng):
        """End-to-end algorithm -> architecture handoff."""
        from repro.models.layer_spec import ModelSpec
        from repro.sim import DuetAccelerator

        dual, ds = dualized
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        model = ModelSpec("proxy", "cnn", [w.spec for w in workloads])
        report = DuetAccelerator(stage="DUET").run(model, workloads=workloads)
        base = DuetAccelerator(stage="BASE").run(model, workloads=workloads)
        assert report.total_cycles <= base.total_cycles
