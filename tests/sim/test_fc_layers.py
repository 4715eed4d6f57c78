"""Tests for FC-layer support in the simulator (paper Section VI claim:
dual-module processing "can also save memory access of FC and RNN layers")."""

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.models.layer_spec import FCSpec
from repro.sim import DuetAccelerator
from repro.sim.config import stage_config
from repro.sim.executor import ExecutorModel
from repro.sim.speculator import SpeculatorModel
from repro.workloads import SparsityModel, cnn_workloads
from repro.workloads.sparsity import FcLayerWorkload


@pytest.fixture
def fc_spec():
    return FCSpec("fc6", 9216, 4096)


@pytest.fixture
def fc_workload(fc_spec, rng):
    omap = (rng.random(4096) > 0.6).astype(np.uint8)
    imap = (rng.random(9216) > 0.5).astype(np.uint8)
    return FcLayerWorkload(fc_spec, omap, imap)


class TestFcWorkload:
    def test_shape_validation(self, fc_spec):
        with pytest.raises(ValueError, match="omap shape"):
            FcLayerWorkload(
                fc_spec,
                np.zeros(5, dtype=np.uint8),
                np.zeros(9216, dtype=np.uint8),
            )
        # non-binary maps would be priced as extra (or negative) MACs
        ones = np.ones(4096, dtype=np.int64)
        with pytest.raises(ValueError, match="imap holds values outside"):
            FcLayerWorkload(fc_spec, ones, np.full(9216, 2))
        with pytest.raises(ValueError, match="omap holds values outside"):
            FcLayerWorkload(fc_spec, -ones, np.ones(9216, dtype=np.int64))

    def test_counts(self, fc_workload):
        assert fc_workload.sensitive_count == int(fc_workload.omap.sum())
        assert 0.0 < fc_workload.sensitive_fraction < 1.0
        assert 0.0 < fc_workload.input_density < 1.0

    def test_sparsity_model_generation(self, fc_spec):
        wl = SparsityModel(seed=4).fc_layer(fc_spec, 5)
        assert wl.omap.shape == (4096,)
        assert abs(wl.sensitive_fraction - 0.38) < 0.05

    def test_cnn_workloads_include_fc(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec, include_fc=True)
        assert len(wl) == 8
        fc_loads = [w for w in wl if isinstance(w, FcLayerWorkload)]
        assert [w.spec.name for w in fc_loads] == ["fc6", "fc7", "fc8"]
        # the logits layer has no ReLU: always dense
        assert fc_loads[-1].sensitive_fraction == 1.0

    def test_cnn_workloads_default_excludes_fc(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        assert len(wl) == 5


class TestFcExecution:
    def test_executor_row_gating(self, fc_spec):
        model = ExecutorModel()
        dense = model.fc_layer(fc_spec, 4096)
        sparse = model.fc_layer(fc_spec, 1024)
        assert sparse.executed_macs == dense.executed_macs // 4
        assert sparse.weight_words == dense.weight_words // 4
        assert sparse.compute_cycles < dense.compute_cycles

    def test_input_nonzeros_shorten_rows(self, fc_spec):
        model = ExecutorModel()
        full = model.fc_layer(fc_spec, 2048)
        short = model.fc_layer(fc_spec, 2048, input_nonzeros=4608)
        assert short.executed_macs == full.executed_macs // 2
        assert short.compute_cycles < full.compute_cycles
        # weight fetch volume is unchanged: rows still stream in full
        assert short.weight_words == full.weight_words

    def test_out_of_range(self, fc_spec):
        with pytest.raises(ValueError, match="outside"):
            ExecutorModel().fc_layer(fc_spec, 5000)
        for nonzeros in (-1, 9217):
            with pytest.raises(ValueError, match="input_nonzeros"):
                ExecutorModel().fc_layer(fc_spec, 2048, input_nonzeros=nonzeros)

    def test_speculation_cost(self, fc_spec):
        cost = SpeculatorModel().fc_layer(fc_spec, 0.125)
        k = -(-9216 // 8)
        assert cost.int4_macs == 4096 * k
        assert cost.reorder_bit_adds == 0


class TestFcPipeline:
    def test_fc_dram_gated_by_switching(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec, include_fc=True)
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        # fc6 weight traffic shrinks roughly with the sensitive fraction
        fc6_ratio = duet.layer("fc6").dram_bytes / base.layer("fc6").dram_bytes
        assert 0.25 < fc6_ratio < 0.55
        # the dense logits layer is untouched
        assert duet.layer("fc8").dram_bytes == base.layer("fc8").dram_bytes

    def test_fc_layers_are_memory_bound(self):
        """AlexNet's fc6 holds 38M weights: the layer is DRAM-limited."""
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec, include_fc=True)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        fc6 = base.layer("fc6")
        assert fc6.memory_cycles > fc6.executor_cycles

    def test_whole_model_still_wins(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec, include_fc=True)
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        assert duet.speedup_over(base) > 1.8
        assert duet.energy_saving_over(base) > 1.5

    def test_vgg16_fc_dominates_weights(self):
        """VGG16's classifier is ~90% of its weights; FC gating cuts a
        noticeable share of whole-model DRAM traffic even though the big
        CONV layers' tiling re-fetches dominate the total."""
        spec = get_model_spec("vgg16")
        wl = cnn_workloads(spec, include_fc=True)
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        dram_saving = 1 - sum(l.dram_bytes for l in duet.layers) / sum(
            l.dram_bytes for l in base.layers
        )
        assert dram_saving > 0.12
        # the FC layers themselves save >40% of their own traffic
        fc_names = [l.name for l in base.layers if l.name.startswith("fc")]
        fc_saving = 1 - sum(duet.layer(n).dram_bytes for n in fc_names) / sum(
            base.layer(n).dram_bytes for n in fc_names
        )
        assert fc_saving > 0.4
