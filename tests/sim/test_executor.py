"""Tests for the Executor cycle model."""

import numpy as np
import pytest

from repro.models.layer_spec import ConvSpec, RNNSpec
from repro.sim.config import DuetConfig, stage_config
from repro.sim.executor import ExecutorModel
from repro.workloads.sparsity import SparsityModel


@pytest.fixture
def workload():
    spec = ConvSpec("c", 16, 32, kernel=3, stride=1, padding=1, in_h=16, in_w=16)
    return SparsityModel(seed=2, first_layer_dense=False).cnn_layer(spec, 1)


class TestCnnExecution:
    def test_dense_cycle_lower_bound(self, workload):
        """BASE cycles >= total MACs / array throughput."""
        model = ExecutorModel(stage_config("BASE"))
        cost = model.cnn_layer(workload)
        assert cost.cycles >= workload.spec.macs // 256
        assert cost.executed_macs == workload.spec.macs
        assert cost.utilization <= 1.0

    def test_output_switching_reduces_work(self, workload):
        base = ExecutorModel(stage_config("BASE")).cnn_layer(workload)
        os_cost = ExecutorModel(stage_config("OS")).cnn_layer(workload)
        assert os_cost.executed_macs < base.executed_macs
        assert os_cost.cycles < base.cycles

    def test_input_switching_reduces_further(self, workload):
        os_cost = ExecutorModel(stage_config("OS")).cnn_layer(workload)
        ios_cost = ExecutorModel(stage_config("IOS")).cnn_layer(workload)
        assert ios_cost.executed_macs < os_cost.executed_macs
        assert ios_cost.cycles <= os_cost.cycles

    def test_adaptive_mapping_improves_utilization(self, workload):
        os_cost = ExecutorModel(stage_config("OS")).cnn_layer(workload)
        bos_cost = ExecutorModel(stage_config("BOS")).cnn_layer(workload)
        # same MACs, fewer (or equal) cycles, better utilisation
        assert bos_cost.executed_macs == os_cost.executed_macs
        assert bos_cost.cycles <= os_cost.cycles
        assert bos_cost.utilization >= os_cost.utilization

    def test_stage_ordering_on_cycles(self, workload):
        cycles = {
            stage: ExecutorModel(stage_config(stage)).cnn_layer(workload).cycles
            for stage in ("BASE", "OS", "BOS", "IOS", "DUET")
        }
        assert cycles["BASE"] >= cycles["OS"] >= cycles["BOS"]
        assert cycles["OS"] >= cycles["IOS"] >= cycles["DUET"]

    def test_utilization_definition(self, workload):
        cfg = stage_config("OS")
        cost = ExecutorModel(cfg).cnn_layer(workload)
        capacity = cost.cycles * cfg.executor_rows * cfg.executor_cols
        assert cost.utilization == pytest.approx(cost.executed_macs / capacity)


class TestRnnGate:
    def test_dense_gate(self):
        spec = RNNSpec("l", "lstm", 1024, 1024, seq_len=1)
        model = ExecutorModel()
        cost = model.rnn_gate(spec, sensitive_rows=1024)
        assert cost.executed_macs == 1024 * 2048
        assert cost.weight_words == cost.executed_macs
        # 64 waves of (2048/16 + log2 reduction) cycles
        assert cost.compute_cycles == 64 * (128 + 4)

    def test_sparse_gate_halves_work(self):
        spec = RNNSpec("l", "lstm", 1024, 1024, seq_len=1)
        model = ExecutorModel()
        dense = model.rnn_gate(spec, 1024)
        sparse = model.rnn_gate(spec, 512)
        assert sparse.executed_macs == dense.executed_macs // 2
        assert sparse.compute_cycles == dense.compute_cycles // 2
        assert sparse.weight_words == dense.weight_words // 2

    def test_zero_sensitive_rows(self):
        spec = RNNSpec("l", "gru", 64, 64, seq_len=1)
        cost = ExecutorModel().rnn_gate(spec, 0)
        assert cost.compute_cycles == 0
        assert cost.executed_macs == 0

    def test_out_of_range(self):
        spec = RNNSpec("l", "lstm", 64, 64, seq_len=1)
        with pytest.raises(ValueError, match="outside"):
            ExecutorModel().rnn_gate(spec, 100)

    def test_no_imbalance_by_construction(self):
        """Row-mapped GEMV: cycles scale exactly with ceil(rows/16) waves."""
        spec = RNNSpec("l", "lstm", 256, 256, seq_len=1)
        model = ExecutorModel()
        c16 = model.rnn_gate(spec, 16).compute_cycles
        c32 = model.rnn_gate(spec, 32).compute_cycles
        c17 = model.rnn_gate(spec, 17).compute_cycles
        assert c32 == 2 * c16
        assert c17 == c32  # partial wave costs a full wave
