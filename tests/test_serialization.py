"""Tests for checkpoint and workload-trace serialization."""

import numpy as np
import pytest

from repro.models import ConvSpec
from repro.nn import Linear, Sequential, ReLU
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.workloads.serialization import load_cnn_workloads, save_cnn_workloads
from repro.workloads.sparsity import CnnLayerWorkload, SparsityModel


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        src = Sequential(Linear(8, 16, rng=rng), ReLU(), Linear(16, 4, rng=rng))
        path = tmp_path / "model.npz"
        save_checkpoint(src, path)
        dst = Sequential(
            Linear(8, 16, rng=np.random.default_rng(99)),
            ReLU(),
            Linear(16, 4, rng=np.random.default_rng(99)),
        )
        load_checkpoint(dst, path)
        x = rng.normal(size=(3, 8))
        np.testing.assert_allclose(src(x), dst(x))

    def test_shape_mismatch_detected(self, tmp_path, rng):
        save_checkpoint(Linear(8, 16, rng=rng), tmp_path / "m.npz")
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(Linear(8, 8, rng=rng), tmp_path / "m.npz")

    def test_empty_model_rejected(self, tmp_path):
        from repro.nn.layers import ReLU

        with pytest.raises(ValueError, match="no parameters"):
            save_checkpoint(ReLU(), tmp_path / "m.npz")


class TestWorkloadTraces:
    @pytest.fixture
    def workloads(self):
        sp = SparsityModel(seed=5, first_layer_dense=False)
        specs = [
            ConvSpec("conv1", 3, 8, 3, 1, 1, 10, 10),
            ConvSpec("conv2", 8, 16, 3, 2, 1, 10, 10),
        ]
        return [sp.cnn_layer(s, i) for i, s in enumerate(specs)]

    def test_round_trip(self, tmp_path, workloads):
        path = tmp_path / "trace.npz"
        save_cnn_workloads(workloads, path)
        loaded = load_cnn_workloads(path)
        assert len(loaded) == 2
        for orig, back in zip(workloads, loaded):
            assert back.spec == orig.spec
            np.testing.assert_array_equal(back.omap, orig.omap)
            np.testing.assert_array_equal(back.imap, orig.imap)

    def test_loaded_workloads_simulate_identically(self, tmp_path, workloads):
        from repro.models.layer_spec import ModelSpec
        from repro.sim import DuetAccelerator

        path = tmp_path / "trace.npz"
        save_cnn_workloads(workloads, path)
        loaded = load_cnn_workloads(path)
        model = ModelSpec("t", "cnn", [w.spec for w in workloads])
        a = DuetAccelerator(stage="DUET").run(model, workloads=workloads)
        b = DuetAccelerator(stage="DUET").run(model, workloads=loaded)
        assert a.total_cycles == b.total_cycles

    def test_crafted_non_binary_map_rejected(self, tmp_path, workloads):
        """A tampered archive whose OMap holds a 2 must not load (the
        simulator would count that output twice)."""
        path = tmp_path / "trace.npz"
        save_cnn_workloads(workloads, path)
        with np.load(path) as archive:
            payload = dict(archive)
        payload["omap_1"] = payload["omap_1"].copy()
        payload["omap_1"][0, 0, 0] = 2
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="omap holds values outside"):
            load_cnn_workloads(path)

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no workloads"):
            save_cnn_workloads([], tmp_path / "x.npz")
