"""Fast-path equivalence: the vectorized kernels against the oracle.

The ``fast_path`` configuration flag swaps the simulator's per-event
Python loops for batched numpy kernels; the slow path is kept as the
reference oracle.  These tests pin the contract: for *any* workload and
configuration the two paths produce identical cycle, energy, MAC and
switch-fraction accounting -- equality, not approximation.

Also includes the bench-harness regression: ``repro bench --smoke`` must
emit a valid ``BENCH_duet.json`` whose equivalence checks pass.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core import cache
from repro.models import ConvSpec, get_model_spec
from repro.sim import executor as executor_module
from repro.sim import DuetAccelerator
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.sim.executor import ExecutorModel
from repro.sim.pe import (
    PE,
    generate_tile_instructions,
    tag_instructions,
    tag_instructions_reference,
)
from repro.reliability.faults import DramFaultStream
from repro.sim.dram import Dram, TransferRetryPolicy
from repro.sim.pipeline import RnnPipeline
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads
from repro.workloads.sparsity import CnnLayerWorkload

@st.composite
def conv_shapes(draw):
    """``(C_in, C_out, kernel, stride, padding, H = W)`` of a valid layer.

    Kernels up to 11 with strides up to 4 give receptive fields that do
    not divide into PE slices, so slice boundaries fall mid-channel and
    mid-kernel-row.
    """
    kernel = draw(st.sampled_from([1, 3, 5, 7, 11]))
    padding = draw(st.sampled_from([0, kernel // 2]))
    hw = draw(st.integers(max(4, kernel - 2 * padding), 14))
    return (
        draw(st.integers(1, 6)),  # C_in
        draw(st.integers(1, 24)),  # C_out
        kernel,
        draw(st.sampled_from([1, 2, 4])),  # stride
        padding,
        hw,
    )


hw_knobs = st.tuples(
    st.sampled_from([4, 8, 16]),  # executor rows
    # DuetConfig wants a power of two; the kernel tests below also draw 3 and 7
    st.sampled_from([1, 2, 8, 16]),  # executor cols
    # 1 bucket leaves no edges; 300 pushes the sort keys past uint8
    st.sampled_from([1, 2, 3, 16, 300]),  # reorder buckets
    st.sampled_from([1, 2, 3, 5]),  # reorder window tiles
    st.sampled_from([1, 3, 8, 13]),  # executor step positions
)


def _spec(shape):
    c_in, c_out, k, stride, padding, hw = shape
    return ConvSpec("c", c_in, c_out, k, stride, padding, hw, hw)


def _workload(shape, sensitive_p, density_p, seed, dtype=np.uint8):
    spec = _spec(shape)
    rng = np.random.default_rng(seed)
    omap = rng.random((spec.out_channels, spec.out_h, spec.out_w)) < sensitive_p
    imap = rng.random((spec.in_channels, spec.in_h, spec.in_w)) < density_p
    return CnnLayerWorkload(spec, omap.astype(dtype), imap.astype(dtype))


def _configs(stage, rows, cols, buckets, window, step):
    """Matching (fast, slow) configs for one randomized design point."""
    base = DuetConfig(
        executor_rows=rows,
        executor_cols=cols,
        reorder_buckets=buckets,
        reorder_window_tiles=window,
        executor_step_positions=step,
    )
    cfg = stage_config(stage, base)
    import dataclasses

    return (
        dataclasses.replace(cfg, fast_path=True),
        dataclasses.replace(cfg, fast_path=False),
    )


class TestExecutorFastPath:
    """Vectorized CNN executor model vs the per-channel reference."""

    @settings(deadline=None, max_examples=60)
    @given(
        conv_shapes(),
        st.sampled_from(STAGES),
        hw_knobs,
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
    )
    def test_cnn_cost_identical(
        self, shape, stage, knobs, sensitive_p, density_p, seed
    ):
        workload = _workload(shape, sensitive_p, density_p, seed)
        fast_cfg, slow_cfg = _configs(stage, *knobs)
        fast = ExecutorModel(fast_cfg).cnn_layer(workload)
        slow = ExecutorModel(slow_cfg).cnn_layer(workload)
        assert fast.cycles == slow.cycles
        assert fast.executed_macs == slow.executed_macs
        assert fast.dense_macs == slow.dense_macs
        assert fast.utilization == slow.utilization

    @settings(deadline=None, max_examples=20)
    @given(
        conv_shapes(),
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
    )
    def test_memoized_cost_stable_across_calls(self, shape, p, seed):
        """A second fast call returns the same account (memo correctness)."""
        workload = _workload(shape, p, 0.5, seed)
        model = ExecutorModel(stage_config("DUET"))
        first = model.cnn_layer(workload)
        second = model.cnn_layer(workload)
        assert first.cycles == second.cycles
        assert first.executed_macs == second.executed_macs


class TestReceptiveCountKernel:
    """The im2col-free receptive-count kernel against the im2col oracle."""

    @settings(deadline=None, max_examples=60)
    @given(
        conv_shapes(),
        st.sampled_from([1, 3, 7, 16]),
        st.sampled_from([np.uint8, np.bool_, np.int64]),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    def test_explicit_maps(self, shape, cols, dtype, density, seed):
        workload = _workload(shape, 0.5, density, seed, dtype)
        cycles = workload.position_cycles_fast(cols)
        assert cycles.dtype == np.int64
        np.testing.assert_array_equal(cycles, workload.position_cycles(cols, True))
        np.testing.assert_array_equal(
            workload.position_costs_fast(), workload.position_costs().reshape(-1)
        )

    @settings(deadline=None, max_examples=30)
    @given(
        conv_shapes(),
        st.sampled_from([1, 3, 7, 16]),
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
        st.integers(0, 3),
    )
    def test_sampled_maps(self, shape, cols, density, seed, layer_index):
        model = SparsityModel(cnn_input_density=density, seed=seed)
        workload = model.cnn_layer(_spec(shape), layer_index)
        # costs first, so they come from the costs-only path rather than
        # from the cycles kernel's memo (test_explicit_maps covers that)
        costs = workload.position_costs_fast()
        np.testing.assert_array_equal(costs, workload.position_costs().reshape(-1))
        np.testing.assert_array_equal(
            workload.position_cycles_fast(cols), workload.position_cycles(cols, True)
        )

    @pytest.mark.parametrize("cols", [1, 3, 16])
    def test_kernel_wider_than_uint8_sums(self, cols):
        """17x17 windows count up to 289 ones: past uint8's range."""
        workload = _workload((2, 3, 17, 1, 8, 20), 0.5, 0.97, 5)
        np.testing.assert_array_equal(
            workload.position_cycles_fast(cols), workload.position_cycles(cols, True)
        )
        costs = workload.position_costs().reshape(-1)
        assert costs.max() > 255
        np.testing.assert_array_equal(workload.position_costs_fast(), costs)

    @pytest.mark.parametrize("stage", STAGES)
    def test_fast_path_never_builds_im2col(self, stage, monkeypatch):
        shape = (5, 12, 5, 2, 2, 15)  # 125-wide fields: slices cut channels
        slow_cfg = dataclasses.replace(stage_config(stage), fast_path=False)
        slow = ExecutorModel(slow_cfg).cnn_layer(_workload(shape, 0.4, 0.4, 1))

        def refuse(self):
            raise AssertionError("the fast path built the im2col")

        monkeypatch.setattr(CnnLayerWorkload, "_receptive_columns", refuse)
        fast = ExecutorModel(stage_config(stage)).cnn_layer(
            _workload(shape, 0.4, 0.4, 1)
        )
        assert fast.cycles == slow.cycles
        assert fast.executed_macs == slow.executed_macs
        assert fast.utilization == slow.utilization


def _reference_window_order(workload, tile_positions, window, buckets):
    """The reference executor's float bucketing and stable sort, as
    ``(num_windows, C_out)``."""
    counts = workload.channel_tile_switch_counts(tile_positions).astype(np.float64)
    num_tiles = counts.shape[1]
    num_windows = -(-num_tiles // window)
    pad = num_windows * window - num_tiles
    if pad:
        counts = np.pad(counts, ((0, 0), (0, pad)))
    bucketed = counts.reshape(-1, num_windows, window).sum(axis=2)
    hi = bucketed.max()
    if hi > 0:
        edges = np.linspace(0.0, hi, buckets + 1)[1:-1]
        bucketed = np.searchsorted(edges, bucketed).astype(np.float64)
    return np.argsort(-bucketed, axis=0, kind="stable").T


class TestWindowOrderKernel:
    """The integer Reorder-Unit order against the float reference."""

    @settings(deadline=None, max_examples=60)
    @given(
        conv_shapes(),
        st.sampled_from([1, 3, 8, 13]),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from([1, 2, 3, 16, 300]),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    def test_matches_float_reference(
        self, shape, tile_positions, window, buckets, sensitive_p, seed
    ):
        workload = _workload(shape, sensitive_p, 0.5, seed)
        order = workload.window_order_fast(tile_positions, window, buckets)
        assert order.dtype == np.uint16
        np.testing.assert_array_equal(
            order, _reference_window_order(workload, tile_positions, window, buckets)
        )

    @pytest.mark.parametrize("fill", [0, 1])
    @pytest.mark.parametrize("buckets", [1, 16, 300])
    def test_uniform_omap_keeps_channel_order(self, fill, buckets):
        """All-zero sums (``hi == 0``) and all-equal sums (every key ties)
        both leave each window in channel order."""
        spec = _spec((3, 21, 3, 1, 1, 9))
        omap = np.full((spec.out_channels, spec.out_h, spec.out_w), fill, np.uint8)
        imap = np.ones((spec.in_channels, spec.in_h, spec.in_w), np.uint8)
        workload = CnnLayerWorkload(spec, omap, imap)
        order = workload.window_order_fast(8, 2, buckets)
        assert order.shape == (6, spec.out_channels)  # 81 positions, 11 tiles
        np.testing.assert_array_equal(
            order, np.tile(np.arange(spec.out_channels), (order.shape[0], 1))
        )
        np.testing.assert_array_equal(
            order, _reference_window_order(workload, 8, 2, buckets)
        )

    def test_paper_fig8_example(self):
        """Paper Fig. 7b/8: switching sums 4, 1, 2, 4 in two buckets put
        channels 0 and 3 (the upper bucket) first, each bucket in channel
        order."""
        spec = _spec((1, 4, 1, 1, 0, 2))  # one 4-position tile per channel
        omap = np.zeros((4, 4), np.uint8)
        for channel, ones in enumerate((4, 1, 2, 4)):
            omap[channel, :ones] = 1
        imap = np.ones((1, 2, 2), np.uint8)
        workload = CnnLayerWorkload(spec, omap.reshape(4, 2, 2), imap)
        order = workload.window_order_fast(4, 1, 2)
        np.testing.assert_array_equal(order, [[0, 3, 1, 2]])
        np.testing.assert_array_equal(
            order, _reference_window_order(workload, 4, 1, 2)
        )

    @pytest.mark.parametrize("stage", ["BOS", "DUET"])
    @pytest.mark.parametrize("rows", [4, 8, 16])
    def test_channels_not_a_multiple_of_rows(self, stage, rows):
        workload = _workload((4, 13, 3, 1, 1, 11), 0.4, 0.4, 3)
        fast_cfg, slow_cfg = _configs(stage, rows, 4, 3, 2, 3)
        fast = ExecutorModel(fast_cfg).cnn_layer(workload)
        slow = ExecutorModel(slow_cfg).cnn_layer(workload)
        assert fast.cycles == slow.cycles

    @pytest.mark.parametrize("bad", ["tile_positions", "window", "buckets"])
    def test_non_positive_arguments_rejected(self, bad):
        args = {"tile_positions": 8, "window": 2, "buckets": 16, bad: 0}
        with pytest.raises(ValueError, match=bad):
            _workload((2, 4, 3, 1, 1, 6), 0.5, 0.5, 0).window_order_fast(**args)

    def test_bos_and_duet_share_one_order(self, monkeypatch):
        workload = _workload((3, 24, 3, 1, 1, 12), 0.4, 0.4, 2)
        returned = []
        kernel = CnnLayerWorkload.window_order_fast

        def spy(self, *args):
            returned.append(kernel(self, *args))
            return returned[-1]

        monkeypatch.setattr(CnnLayerWorkload, "window_order_fast", spy)
        for stage in ("BOS", "DUET"):
            ExecutorModel(stage_config(stage)).cnn_layer(workload)
        assert len(returned) == 2 and returned[0] is returned[1]
        memo = [k for k in workload._slice_cache if k[0] == "window_order_fast"]
        assert len(memo) == 1


def _saturated(shape, seed):
    """A workload whose channel 0 is sensitive everywhere and whose IMap is
    dense, so per-tile sums reach their bounds; the other channels are
    random."""
    workload = _workload(shape, 0.6, 1.0, seed)
    omap = workload.omap.copy()
    omap[0] = 1
    return CnnLayerWorkload(workload.spec, omap, workload.imap)


def _assert_stages_match(workload, stages=STAGES, **knobs):
    for stage in stages:
        fast_cfg, slow_cfg = _configs(stage, **knobs)
        fast = ExecutorModel(fast_cfg).cnn_layer(workload)
        slow = ExecutorModel(slow_cfg).cnn_layer(workload)
        assert fast.cycles == slow.cycles, stage
        assert fast.executed_macs == slow.executed_macs, stage
        assert fast.utilization == slow.utilization, stage


class TestNarrowDtypeBoundaries:
    """Fast == slow where a narrow per-tile accumulator must widen.

    The fast kernels sum in the narrowest unsigned dtype that holds each
    bound.  The hypothesis knobs above never reach a widening point (steps
    of at most 13 positions, receptive fields of at most 726 at one
    column), so each one is pinned here.
    """

    def test_tile_cycles_past_uint16(self):
        """64 x 9 x 9 dense fields at one column cost 5184 cycles a
        position; a 13-position tile of them costs 67,392."""
        workload = _saturated((64, 5, 9, 1, 0, 12), 1)
        for use_imap in (True, False):
            fast = workload.channel_tile_cycles_fast(1, use_imap, 13)
            assert fast.dtype == np.uint32 and fast.max() == 67_392
            np.testing.assert_array_equal(
                fast, workload.channel_tile_cycles(1, True, use_imap, 13)
            )
        _assert_stages_match(workload, rows=4, cols=1, buckets=16, window=2, step=13)

    def test_tile_counts_past_uint8(self):
        """Steps of 300 positions count up to 300 sensitive outputs."""
        workload = _saturated((2, 6, 3, 1, 1, 20), 2)
        fast = workload.channel_tile_switch_counts_fast(300)
        assert fast.dtype == np.uint16 and fast.max() == 300
        np.testing.assert_array_equal(fast, workload.channel_tile_switch_counts(300))
        _assert_stages_match(workload, rows=4, cols=2, buckets=16, window=2, step=300)

    @pytest.mark.parametrize("buckets", [16, 300])
    def test_window_sums_past_uint8(self, buckets):
        """Five 64-position tiles sum to 320 switching bits per window."""
        workload = _saturated((2, 9, 3, 1, 1, 20), 3)
        assert workload.channel_tile_switch_counts(64)[:, :5].sum(axis=1).max() == 320
        np.testing.assert_array_equal(
            workload.window_order_fast(64, 5, buckets),
            _reference_window_order(workload, 64, 5, buckets),
        )
        _assert_stages_match(
            workload,
            stages=("BOS", "DUET"),
            rows=4,
            cols=2,
            buckets=buckets,
            window=5,
            step=64,
        )

    def test_per_position_channel_count_past_uint8(self):
        """300 output channels put up to 300 sensitive outputs on one
        position of the executed-MAC count."""
        workload = _workload((3, 300, 1, 1, 0, 5), 0.95, 0.5, 4)
        assert workload.omap.sum(axis=0).max() > 255
        _assert_stages_match(workload, rows=16, cols=2, buckets=16, window=2, step=8)


@pytest.fixture
def fresh_layer_memo():
    """An empty, enabled layer-cost memo; restored afterwards."""
    cache.clear_caches()
    cache.set_cache_enabled(True)
    yield cache.LAYER_COST_CACHE
    cache.clear_caches()
    cache.set_cache_enabled(True)


class TestLayerCostMemo:
    """The recipe-keyed layer-cost memo of ``_cnn_layer_fast``: a hit is
    the same account as a miss and as the slow-path oracle."""

    @settings(deadline=None, max_examples=40)
    @given(
        conv_shapes(),
        st.sampled_from(STAGES),
        hw_knobs,
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
        st.integers(0, 30),
    )
    def test_hit_equals_miss_equals_slow(
        self, shape, stage, knobs, sensitive, density, seed, layer_index
    ):
        cache.set_cache_enabled(True)
        memo = cache.LAYER_COST_CACHE
        memo.clear()
        spec = _spec(shape)
        model = SparsityModel(
            cnn_sensitive_mean=sensitive, cnn_input_density=density, seed=seed
        )
        fast_cfg, slow_cfg = _configs(stage, *knobs)
        miss = ExecutorModel(fast_cfg).cnn_layer(model.cnn_layer(spec, layer_index))
        assert (memo.hits, memo.misses, len(memo)) == (0, 1, 1)

        fresh = model.cnn_layer(spec, layer_index)
        hit = ExecutorModel(fast_cfg).cnn_layer(fresh)
        assert (memo.hits, memo.misses) == (1, 1)
        assert fresh._omap is None  # a hit never draws the maps

        slow = ExecutorModel(slow_cfg).cnn_layer(model.cnn_layer(spec, layer_index))
        assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)
        for cost in (hit, slow):
            assert cost.cycles == miss.cycles
            assert cost.executed_macs == miss.executed_macs
            assert cost.dense_macs == miss.dense_macs
            assert cost.utilization == miss.utilization

    def test_model_reports_identical_on_hits(self, fresh_layer_memo):
        """Whole-model reports: memo hits ≡ misses ≡ the slow path."""
        spec = get_model_spec("resnet18")
        sparsity = SparsityModel(seed=4)
        cfg = stage_config("DUET")
        miss = DuetAccelerator(config=cfg, sparsity=sparsity).run(spec)
        hit = DuetAccelerator(config=cfg, sparsity=sparsity).run(spec)
        slow = DuetAccelerator(
            config=dataclasses.replace(cfg, fast_path=False), sparsity=sparsity
        ).run(spec)
        assert fresh_layer_memo.hits == len(spec.conv_layers)
        assert hit.layers == miss.layers == slow.layers

    def test_reliability_rewritten_workload_bypasses_memo(self, fresh_layer_memo):
        """A map rewritten by a ReliabilityContext has no recipe, so the
        memo neither serves nor stores it."""
        from repro.reliability import ReliabilityContext

        memo = fresh_layer_memo
        spec = get_model_spec("alexnet")
        sparsity = SparsityModel(seed=2)
        DuetAccelerator(stage="DUET", sparsity=sparsity).run(spec)
        before = memo.hits + memo.misses
        seen = []
        context = ReliabilityContext("smoke", seed=0)
        process = context.process_cnn_workload

        def spy(index, workload, cfg):
            out = process(index, workload, cfg)
            seen.append(out)
            return out

        context.process_cnn_workload = spy
        DuetAccelerator(
            stage="DUET", sparsity=sparsity, reliability=context
        ).run(spec)
        rewritten = [w for w in seen if w.recipe is None]
        assert rewritten, "the guards must rewrite at least one layer"
        # only the workloads that kept their recipe consulted the memo
        assert memo.hits + memo.misses - before == len(seen) - len(rewritten)

    def test_disabled_caches_bypass_memo(self, fresh_layer_memo):
        cache.set_cache_enabled(False)
        spec = get_model_spec("alexnet")
        sparsity = SparsityModel(seed=2)
        first = DuetAccelerator(sparsity=sparsity).run(spec)
        second = DuetAccelerator(sparsity=sparsity).run(spec)
        assert first.layers == second.layers
        assert fresh_layer_memo.stats()["hits"] == 0
        assert len(fresh_layer_memo) == 0

    def test_lru_bound_respected(self, monkeypatch):
        """More distinct layers than the capacity: the memo stays at its
        bound, evicting least-recently-used entries."""
        assert cache.LAYER_COST_CACHE.capacity == 1024
        memo = cache.MemoCache("layer_cost", capacity=8)
        monkeypatch.setattr(executor_module, "LAYER_COST_CACHE", memo)
        monkeypatch.setattr(cache, "_enabled", True)
        spec = ConvSpec("c", 2, 4, 3, 1, 1, 5, 5)
        executor = ExecutorModel(stage_config("DUET"))
        for seed in range(20):
            executor.cnn_layer(SparsityModel(seed=seed).cnn_layer(spec, 1))
            assert len(memo) <= 8
        assert memo.evictions == 12
        executor.cnn_layer(SparsityModel(seed=19).cnn_layer(spec, 1))
        executor.cnn_layer(SparsityModel(seed=0).cnn_layer(spec, 1))
        assert (memo.hits, memo.misses) == (1, 21)


class TestPeFastPath:
    """Vectorized PE instruction stream vs the event-at-a-time oracle."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 4),  # kernel
        st.integers(1, 6),  # out_w
        st.floats(0.0, 1.0),  # omap density
        st.booleans(),  # with imap
        st.integers(0, 10_000),
    )
    def test_run_matches_reference(self, kernel, out_w, p, with_imap, seed):
        rng = np.random.default_rng(seed)
        tile_h, tile_w = kernel, kernel + out_w - 1
        instructions = generate_tile_instructions(tile_h, tile_w, kernel, out_w)
        omap = (rng.random(out_w) < p).astype(np.uint8)
        imap = (
            (rng.random(tile_h * tile_w) < 0.7).astype(np.uint8)
            if with_imap
            else None
        )
        tags = tag_instructions(instructions, omap, imap)
        ref_tags = tag_instructions_reference(instructions, omap, imap)
        np.testing.assert_array_equal(tags, ref_tags)

        inputs = rng.normal(size=tile_h * tile_w)
        weights = rng.normal(size=kernel * kernel)
        fast_pe, ref_pe = PE(), PE()
        fast_pe.load_tile(inputs, weights, out_w)
        ref_pe.load_tile(inputs, weights, out_w)
        fast = fast_pe.run(instructions, tags)
        ref = ref_pe.run_reference(instructions, ref_tags)
        np.testing.assert_array_equal(fast, ref)
        assert fast_pe.cycles == ref_pe.cycles
        assert fast_pe.macs_executed == ref_pe.macs_executed
        assert fast_pe.macs_skipped == ref_pe.macs_skipped


class TestModelReports:
    """Whole-model reports: every per-layer counter identical."""

    @staticmethod
    def _assert_reports_identical(model, stage):
        spec = get_model_spec(model)
        sparsity = SparsityModel(seed=3)
        if spec.domain == "cnn":
            wl = cnn_workloads(spec, sparsity)
        else:
            wl = rnn_workloads(spec, sparsity)
        cfg = stage_config(stage)
        fast = DuetAccelerator(
            config=dataclasses.replace(cfg, fast_path=True)
        ).run(spec, workloads=wl)
        slow = DuetAccelerator(
            config=dataclasses.replace(cfg, fast_path=False)
        ).run(spec, workloads=wl)
        # LayerReport is a plain dataclass of scalars: == is exact equality
        # of every cycle/energy/MAC/utilisation field, layer by layer.
        assert fast.layers == slow.layers

    @pytest.mark.parametrize("model", ["alexnet", "lstm"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_fast_slow_reports_identical(self, model, stage):
        self._assert_reports_identical(model, stage)

    @pytest.mark.parametrize("model", ["vgg16", "resnet18", "resnet50"])
    @pytest.mark.parametrize("stage", ["BOS", "DUET"])
    def test_full_size_adaptive_reports_identical(self, model, stage):
        """Adaptive mapping over full-size maps: thousands of windows."""
        self._assert_reports_identical(model, stage)

    def test_switch_fraction_identical(self):
        """The Fig. 2-style sensitive fraction agrees across paths."""
        spec = get_model_spec("resnet18")
        sparsity = SparsityModel(seed=7)
        wl = cnn_workloads(spec, sparsity)
        import dataclasses

        cfg = stage_config("DUET")
        reports = {
            flag: DuetAccelerator(
                config=dataclasses.replace(cfg, fast_path=flag)
            ).run(spec, workloads=wl)
            for flag in (True, False)
        }
        for fast_layer, slow_layer in zip(
            reports[True].layers, reports[False].layers
        ):
            assert fast_layer.executed_macs == slow_layer.executed_macs
            assert fast_layer.dense_macs == slow_layer.dense_macs


class TestRnnPipelineFastPath:
    """The vectorized RNN gate pipeline vs the per-timestep loop."""

    @pytest.mark.parametrize("model", ["lstm", "gru", "gnmt"])
    def test_rnn_layers_identical(self, model):
        spec = get_model_spec(model)
        wl = rnn_workloads(spec, SparsityModel(seed=11))
        import dataclasses

        for stage in ("BASE", "DUET"):
            cfg = stage_config(stage)
            fast = RnnPipeline(
                dataclasses.replace(cfg, fast_path=True)
            ).run(spec, wl)
            slow = RnnPipeline(
                dataclasses.replace(cfg, fast_path=False)
            ).run(spec, wl)
            assert fast.layers == slow.layers


def _read_each(dram, byte_counts):
    """The per-transfer oracle of ``Dram.read_bulk``: one ``Dram.read``
    per entry, in C order (time-step major, as the RNN gate loop runs)."""
    cycles = [dram.read(int(n)) for n in byte_counts.ravel()]
    return np.array(cycles, dtype=np.int64).reshape(byte_counts.shape)


class TestGateFetchFastPath:
    """The RNN grid's batched weight fetch (``Dram.read_bulk``) vs one
    ``Dram.read`` per transfer, including a flaky channel where both
    paths must consume the identical fault-draw sequence."""

    @staticmethod
    def _dram(seed, rate):
        stream = DramFaultStream(np.random.default_rng(seed), rate=rate)
        return Dram(
            bandwidth=64,
            fault_stream=stream,
            retry_policy=TransferRetryPolicy(max_retries=3, backoff_cycles=8),
        )

    @given(
        counts=st.lists(st.integers(0, 4096), min_size=1, max_size=64),
        rate=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_flaky_channel_bit_identical(self, counts, rate, seed):
        byte_counts = np.array(counts, dtype=np.int64)
        fast_dram = self._dram(seed, rate)
        slow_dram = self._dram(seed, rate)
        fast = fast_dram.read_bulk(byte_counts)
        slow = _read_each(slow_dram, byte_counts)
        assert np.array_equal(fast, slow)
        for counter in ("retries", "failed_transfers", "unrecoverable_transfers"):
            assert getattr(fast_dram, counter) == getattr(slow_dram, counter)

    def test_fault_free_channel_identical(self):
        byte_counts = np.arange(12, dtype=np.int64).reshape(3, 4) * 7
        fast_dram, slow_dram = Dram(bandwidth=64), Dram(bandwidth=64)
        fast = fast_dram.read_bulk(byte_counts)
        slow = _read_each(slow_dram, byte_counts)
        assert np.array_equal(fast, slow)
        assert fast.shape == byte_counts.shape


class TestBenchHarness:
    """``repro bench --smoke`` writes a valid BENCH_duet.json."""

    def test_smoke_bench_writes_valid_json(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_duet.json"
        code = cli.main(
            [
                "bench",
                "--smoke",
                "--warmup",
                "0",
                "--repeat",
                "1",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["schema"] == "duet-bench/1"
        assert document["smoke"] is True
        assert document["all_equivalent"] is True
        assert document["suites"], "smoke run must time at least one suite"
        for suite in document["suites"]:
            assert suite["equivalence"] == "bit-identical"
            assert suite["simulated_cycles"] > 0
            assert suite["wall_time_s"]["fast"] > 0
            assert suite["wall_time_s"]["slow"] > 0
            assert suite["speedup_vs_slow_path"] > 0
            assert suite["bench_file"].startswith("benchmarks/bench_")
        assert document["geomean_speedup_vs_slow_path"] > 0

    def test_explicit_suite_selection(self, tmp_path):
        out_file = tmp_path / "b.json"
        code = cli.main(
            ["bench", "--suite", "fig12d_rnn_memory", "--smoke",
             "--warmup", "0", "--repeat", "1", "--output", str(out_file)]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert [s["name"] for s in document["suites"]] == ["fig12d_rnn_memory"]

    def test_list_flag_prints_registry(self, capsys):
        assert cli.main(["bench", "--list"]) == 0
        listing = capsys.readouterr().out
        assert "fig11a_overall" in listing


class TestFunctionalFastPath:
    """Batched ``run_conv`` vs its per-event slow path (PAR001 coverage)."""

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(1, 3),  # C_in
        st.integers(1, 8),  # C_out
        st.sampled_from([1, 3]),  # kernel
        st.floats(0.1, 0.9),  # omap density
        st.booleans(),  # with imap
        st.integers(0, 10_000),
    )
    def test_run_conv_matches_slow_path(
        self, c_in, c_out, kernel, p, with_imap, seed
    ):
        from repro.sim.functional import FunctionalExecutorArray

        rng = np.random.default_rng(seed)
        hw = 6
        x = rng.standard_normal((c_in, hw, hw))
        weight = rng.standard_normal((c_out, c_in, kernel, kernel))
        omap = (rng.random((c_out, hw, hw)) < p).astype(np.uint8)
        imap = (
            (rng.random((c_in, hw, hw)) < 0.7).astype(np.uint8)
            if with_imap
            else None
        )
        kwargs = dict(imap=imap, stride=1, padding=kernel // 2)
        fast = FunctionalExecutorArray(
            DuetConfig(executor_rows=4, executor_cols=4, fast_path=True)
        ).run_conv(x, weight, omap, **kwargs)
        slow = FunctionalExecutorArray(
            DuetConfig(executor_rows=4, executor_cols=4, fast_path=False)
        ).run_conv(x, weight, omap, **kwargs)
        assert fast.total_cycles == slow.total_cycles
        assert fast.macs_executed == slow.macs_executed
        assert fast.macs_skipped == slow.macs_skipped
        np.testing.assert_array_equal(fast.row_cycles, slow.row_cycles)
        np.testing.assert_allclose(fast.output, slow.output, atol=1e-9)


class TestTilingFastPath:
    """``choose_tiling_cached`` (the memoized entry used by the CNN
    pipeline's ``_conv_costs``) vs the uncached search."""

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes(), st.sampled_from([1 << 14, 1 << 17, 1 << 20]))
    def test_cached_tiling_identical(self, shape, glb_bytes):
        from repro.sim.tiling import choose_tiling, choose_tiling_cached

        spec = _spec(shape)
        assert choose_tiling_cached(spec, glb_bytes) == choose_tiling(
            spec, glb_bytes
        )
        # a second cached call must return the same (shared) choice
        assert choose_tiling_cached(spec, glb_bytes) == choose_tiling(
            spec, glb_bytes
        )
