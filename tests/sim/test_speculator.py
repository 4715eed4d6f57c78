"""Tests for the Speculator cycle/energy model."""

import pytest

from repro.models.layer_spec import ConvSpec, RNNSpec
from repro.sim.config import DuetConfig
from repro.sim.energy import EnergyModel
from repro.sim.speculator import SpeculatorModel


@pytest.fixture
def conv_spec():
    return ConvSpec("c", 64, 128, kernel=3, stride=1, padding=1, in_h=14, in_w=14)


@pytest.fixture
def rnn_spec():
    return RNNSpec("l", "lstm", 1024, 1024, seq_len=35)


class TestCnnSpeculation:
    def test_cost_fields_consistent(self, conv_spec):
        cost = SpeculatorModel().cnn_layer(conv_spec, 0.25, with_reorder=True)
        assert cost.cycles >= max(cost.stage_cycles.values())
        assert cost.int4_macs > 0
        assert cost.additions > 0
        assert cost.reorder_bit_adds == conv_spec.output_elements

    def test_reorder_optional(self, conv_spec):
        with_r = SpeculatorModel().cnn_layer(conv_spec, 0.25, True)
        without = SpeculatorModel().cnn_layer(conv_spec, 0.25, False)
        assert without.reorder_bit_adds == 0
        assert without.stage_cycles["reorder"] == 0
        assert with_r.int4_macs == without.int4_macs

    def test_reorder_cycle_model(self, conv_spec):
        cost = SpeculatorModel().cnn_layer(conv_spec, 0.25, True)
        # one switching bit per output, reorder_unit_adders bits per cycle
        assert cost.stage_cycles["reorder"] == -(
            -conv_spec.output_elements // DuetConfig().reorder_unit_adders
        )

    def test_bigger_systolic_array_faster(self, conv_spec):
        small = SpeculatorModel(DuetConfig().scaled_speculator(8, 8))
        big = SpeculatorModel(DuetConfig().scaled_speculator(32, 32))
        assert (
            small.cnn_layer(conv_spec, 0.25, True).cycles
            > big.cnn_layer(conv_spec, 0.25, True).cycles
        )

    def test_reduction_scales_work(self, conv_spec):
        lean = SpeculatorModel().cnn_layer(conv_spec, 0.1, True)
        fat = SpeculatorModel().cnn_layer(conv_spec, 0.5, True)
        assert lean.int4_macs < fat.int4_macs
        assert lean.additions < fat.additions

    def test_speculation_cheaper_than_execution(self, conv_spec):
        """Design goal: Speculator work is a small fraction of Executor
        work (INT4 at reduced dimension vs INT16 at full dimension)."""
        cost = SpeculatorModel().cnn_layer(conv_spec, 0.25, True)
        assert cost.int4_macs < conv_spec.macs / 3

    def test_energy_split(self, conv_spec):
        cost = SpeculatorModel().cnn_layer(conv_spec, 0.25, True)
        compute, buffers = cost.energy(EnergyModel())
        assert compute > 0 and buffers > 0


class TestRnnSpeculation:
    def test_gate_cost(self, rnn_spec):
        cost = SpeculatorModel().rnn_gate(rnn_spec, 0.25)
        kx = kh = 256
        assert cost.int4_macs == 1024 * (kx + kh)
        assert cost.mfu_ops == 1024
        assert cost.reorder_bit_adds == 0  # no reorder on the RNN path

    def test_includes_dequantizer_work(self, rnn_spec):
        """RNN path dequantizes approximate outputs (Section III-B Step 4)."""
        cost = SpeculatorModel().rnn_gate(rnn_spec, 0.25)
        assert cost.quantize_ops == 1024 + 1024 + 1024

    def test_gate_speculation_fast_enough_to_hide(self, rnn_spec):
        """Speculation for one gate should be shorter than the dense
        execution of one gate, otherwise it could never be hidden."""
        from repro.sim.executor import ExecutorModel

        spec_cost = SpeculatorModel().rnn_gate(rnn_spec, 0.25)
        exec_cost = ExecutorModel().rnn_gate(rnn_spec, 1024)
        assert spec_cost.cycles < exec_cost.compute_cycles
