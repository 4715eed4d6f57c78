"""Hypothesis property tests on simulator invariants.

These sweep randomised layer shapes and sparsity patterns, checking the
structural guarantees the analytical models must satisfy for *any*
workload -- the invariants the figure-level benchmarks rely on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.layer_spec import ConvSpec, RNNSpec
from repro.sim.config import DuetConfig, stage_config
from repro.sim.executor import ExecutorModel
from repro.sim.speculator import SpeculatorModel
from repro.workloads.sparsity import CnnLayerWorkload

# small-but-varied conv shapes: (C_in, C_out, k, H=W)
conv_shapes = st.tuples(
    st.integers(1, 6),
    st.integers(1, 24),
    st.sampled_from([1, 3]),
    st.integers(4, 10),
)


def _workload(shape, sensitive_p, density_p, seed):
    c_in, c_out, k, hw = shape
    pad = k // 2
    spec = ConvSpec("c", c_in, c_out, k, 1, pad, hw, hw)
    rng = np.random.default_rng(seed)
    omap = (rng.random((c_out, spec.out_h, spec.out_w)) < sensitive_p).astype(
        np.uint8
    )
    imap = (rng.random((c_in, hw, hw)) < density_p).astype(np.uint8)
    return CnnLayerWorkload(spec, omap, imap)


class TestExecutorInvariants:
    @settings(deadline=None, max_examples=40)
    @given(conv_shapes, st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_stage_cycles_monotone(self, shape, p, seed):
        """The guaranteed stage orderings for any workload.

        The adaptive reorder (BOS/DUET) is a hardware-cheap heuristic --
        window-granular, bucket-quantised switching-index sums -- so it
        carries no per-workload guarantee against the *natural* channel
        order (on tiny layers it can lose a cycle to OS).  What the model
        does guarantee: every reordering of switched per-channel costs
        stays within the dense bound (BASE), and input switching only
        shrinks per-tile group maxima under a fixed order.
        """
        workload = _workload(shape, p, 0.5, seed)
        cycles = {
            stage: ExecutorModel(stage_config(stage)).cnn_layer(workload).cycles
            for stage in ("BASE", "OS", "BOS", "IOS", "DUET")
        }
        assert cycles["BASE"] >= cycles["OS"]
        assert cycles["BASE"] >= cycles["BOS"]
        assert cycles["OS"] >= cycles["IOS"] >= 0
        assert cycles["BOS"] >= cycles["DUET"]

    @settings(deadline=None, max_examples=40)
    @given(conv_shapes, st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_executed_macs_never_exceed_dense(self, shape, p, seed):
        workload = _workload(shape, p, 0.5, seed)
        for stage in ("BASE", "OS", "IOS", "DUET"):
            cost = ExecutorModel(stage_config(stage)).cnn_layer(workload)
            assert 0 <= cost.executed_macs <= cost.dense_macs
            assert 0.0 <= cost.utilization <= 1.0 + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.integers(0, 10_000))
    def test_denser_sensitivity_costs_more(self, shape, seed):
        """More sensitive outputs can never reduce OS cycles."""
        sparse = _workload(shape, 0.2, 0.5, seed)
        # a denser map that strictly contains the sparse one
        rng = np.random.default_rng(seed + 1)
        extra = (rng.random(sparse.omap.shape) < 0.5).astype(np.uint8)
        dense = CnnLayerWorkload(
            sparse.spec, np.maximum(sparse.omap, extra), sparse.imap.copy()
        )
        model = ExecutorModel(stage_config("OS"))
        assert model.cnn_layer(dense).cycles >= model.cnn_layer(sparse).cycles

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_cycles_lower_bounded_by_work(self, shape, p, seed):
        """Cycles x array throughput >= executed MACs (no free work)."""
        workload = _workload(shape, p, 0.5, seed)
        cfg = stage_config("DUET")
        cost = ExecutorModel(cfg).cnn_layer(workload)
        assert cost.cycles * cfg.num_pes >= cost.executed_macs

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 512), st.integers(8, 512))
    def test_rnn_gate_scaling(self, sensitive, hidden):
        """Gate cost is monotone in the sensitive count and bounded."""
        sensitive = min(sensitive, hidden)
        spec = RNNSpec("l", "lstm", hidden, hidden, seq_len=1)
        model = ExecutorModel()
        cost = model.rnn_gate(spec, sensitive)
        dense = model.rnn_gate(spec, hidden)
        assert cost.executed_macs <= dense.executed_macs
        assert cost.compute_cycles <= dense.compute_cycles
        assert cost.weight_words == cost.executed_macs


class TestSpeculatorInvariants:
    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.floats(0.05, 0.9))
    def test_cost_fields_non_negative_and_consistent(self, shape, reduction):
        c_in, c_out, k, hw = shape
        spec = ConvSpec("c", c_in, c_out, k, 1, k // 2, hw, hw)
        cost = SpeculatorModel().cnn_layer(spec, reduction, with_reorder=True)
        assert cost.cycles >= max(cost.stage_cycles.values())
        assert cost.int4_macs >= 0 and cost.additions >= 0
        compute, buffers = cost.energy(
            __import__("repro.sim.energy", fromlist=["EnergyModel"]).EnergyModel()
        )
        assert compute >= 0 and buffers >= 0

    @settings(deadline=None, max_examples=20)
    @given(conv_shapes)
    def test_bigger_speculator_higher_throughput(self, shape):
        """A bigger systolic array never has slower *steady-state* stages.

        (Total latency can be worse on tiny layers because the fill
        latency grows with the array -- a real effect, so the invariant is
        on the pipelined stage cycles, not on fill.)
        """
        c_in, c_out, k, hw = shape
        spec = ConvSpec("c", c_in, c_out, k, 1, k // 2, hw, hw)
        small = SpeculatorModel(DuetConfig().scaled_speculator(8, 8))
        big = SpeculatorModel(DuetConfig().scaled_speculator(32, 32))
        small_stages = small.cnn_layer(spec, 0.25, True).stage_cycles
        big_stages = big.cnn_layer(spec, 0.25, True).stage_cycles
        assert max(big_stages.values()) <= max(small_stages.values())


class TestWorkloadIdentities:
    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_tile_cycles_partition_channel_cycles(self, shape, p, seed):
        workload = _workload(shape, p, 0.5, seed)
        for tile in (1, 4, 16):
            tiles = workload.channel_tile_cycles(16, True, True, tile)
            totals = workload.channel_cycles(16, True, True)
            np.testing.assert_array_equal(tiles.sum(axis=1), totals)

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_macs_ordering(self, shape, p, seed):
        workload = _workload(shape, p, 0.5, seed)
        dense = workload.channel_macs(False, False).sum()
        os_macs = workload.channel_macs(True, False).sum()
        ios_macs = workload.channel_macs(True, True).sum()
        assert ios_macs <= os_macs <= dense

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.integers(0, 10_000))
    def test_position_costs_bounded_by_receptive_field(self, shape, seed):
        workload = _workload(shape, 0.5, 0.5, seed)
        costs = workload.position_costs()
        assert costs.min() >= 0
        assert costs.max() <= workload.spec.receptive_field
