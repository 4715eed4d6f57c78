"""Calibrated synthetic switching/sparsity maps for full-size model shapes.

Running the dual-module *algorithm* on ImageNet-scale networks is neither
possible offline (no pre-trained weights) nor necessary: the architecture
results depend on the *statistics* of the switching maps -- overall
sensitive fraction, and how unevenly sensitive outputs distribute across
output channels (the source of PE imbalance, Section IV-A).

This module samples maps from a two-level model:

1. per output channel ``c``, a sensitive rate ``p_c ~ Beta(mean, conc)``
   (low concentration = strong channel-to-channel variance = imbalance);
2. per output position within the channel, ``Bernoulli(p_c)``.

The same model generates RNN gate maps (saturation-driven, no channel
structure -- the paper's RNN dataflow has no imbalance by construction).

Defaults are calibrated against the paper's reported operating points
(e.g. AlexNet CONV5 at 65.5% computation sparsity under OS) and validated
against measured proxy-model maps in the test suite.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass

import numpy as np

from repro.models.layer_spec import ConvSpec, FCSpec, ModelSpec, RNNSpec
from repro.nn.functional import im2col
from repro.validation import check_range, require_range

__all__ = [
    "SparsityModel",
    "CnnLayerWorkload",
    "FcLayerWorkload",
    "RnnLayerWorkload",
    "cnn_workloads",
    "rnn_workloads",
]


def _is_binary(array: np.ndarray) -> bool:
    """Whether every value of ``array`` is 0 or 1."""
    if array.size == 0 or array.dtype == np.bool_:
        return True
    if array.dtype.kind in "iu":
        return bool(array.min() >= 0 and array.max() <= 1)
    return bool(np.all((array == 0) | (array == 1)))


def _strided_sums(
    values: np.ndarray, group: int, bound: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Sums of each run of ``group`` columns of ``values``, ``(R, ceil(N/group))``.

    Column ``t`` of every run is one strided slice ``values[:, t::group]``,
    so ``group`` slice adds replace a reshape-and-reduce; the last run may
    be short (as if zero-padded).  With ``weights`` (shape ``(N,)``) each
    column is scaled by its weight first.  The sums are accumulated in the
    narrowest unsigned dtype holding ``bound``, which the caller proves
    bounds every sum; each product is at most one sum, so nothing wraps.
    """
    rows, columns = values.shape
    dtype = np.min_scalar_type(bound)
    sums = np.zeros((rows, -(-columns // group)), dtype=dtype)
    if weights is not None:
        weights = weights.astype(dtype, copy=False)
        scaled = np.empty_like(sums)
    for t in range(min(group, columns)):
        column = values[:, t::group]
        width = column.shape[1]
        if weights is not None:
            column = np.multiply(column, weights[t::group], out=scaled[:, :width])
        np.add(sums[:, :width], column, out=sums[:, :width])
    return sums


# values per block of a map draw: 256 KiB of float64 scratch
_DRAW_BLOCK = 1 << 15


def _bernoulli_map(
    rng: np.random.Generator, p_channels: np.ndarray, height: int, width: int
) -> np.ndarray:
    """``(rng.random((C, height, width)) < p_channels[:, None, None])`` as uint8.

    The uniforms are drawn in blocks of whole rows (about
    :data:`_DRAW_BLOCK` values) into one reused buffer and compared
    straight into a bool view of the result.  Blocks consume the stream
    in C order, exactly as the single full-size draw does, so the map is
    the same bit for bit without a full-size float64 temporary.
    """
    rows = len(p_channels) * height
    out = np.empty((len(p_channels), height, width), dtype=np.uint8)
    hits = out.reshape(rows, width).view(np.bool_)
    p_rows = np.repeat(p_channels, height)[:, None]
    block = max(1, _DRAW_BLOCK // width)
    buffer = np.empty((min(block, rows), width))
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        uniforms = rng.random(out=buffer[: stop - start])
        np.less(uniforms, p_rows[start:stop], out=hits[start:stop])
    return out


class CnnLayerWorkload:
    """Simulator input for one CONV layer (one image).

    Besides holding the maps, this class derives the per-channel cost
    arrays the Executor cycle model consumes.  The PE-row dataflow
    (paper Fig. 7a) maps one output channel per row; within the row, the
    ``cols`` PEs split each receptive field (the reduction dimension) and
    accumulate psums horizontally, so a position's latency is the *maximum*
    nonzero count over the per-PE slices -- the within-row imbalance the
    paper attributes to input sparsity (Section IV-A).

    A workload is built either from explicit arrays (the constructor) or
    from a sampling recipe (:meth:`SparsityModel.cnn_layer`).  A sampled
    workload draws its maps on first access to :attr:`omap` / :attr:`imap`
    and freezes them read-only, so its :attr:`recipe` always names its
    contents -- which is what lets the Executor memoize layer costs across
    workload objects (:data:`repro.core.cache.LAYER_COST_CACHE`).

    Attributes:
        spec: the layer shape.
        omap: switching map of shape ``(C_out, H', W')`` (1 = sensitive).
        imap: input sparsity map of shape ``(C_in, H, W)`` (1 = nonzero).
        recipe: ``(astuple(sparsity model), spec, layer_index)`` for a
            sampled workload -- it fully determines both maps -- or None
            for one built from explicit arrays.
    """

    def __init__(self, spec: ConvSpec, omap: np.ndarray, imap: np.ndarray):
        self._init(spec, omap, imap, recipe=None)
        self._check_shapes()

    @classmethod
    def sampled(
        cls, sampler: "SparsityModel", spec: ConvSpec, layer_index: int
    ) -> "CnnLayerWorkload":
        """A workload whose maps ``sampler`` draws on first access.

        The recipe snapshots the sampler's fields, so mutating it
        afterwards leaves this workload's maps unchanged; the snapshot
        (not a closure) is what an undrawn workload pickles.
        """
        workload = cls.__new__(cls)
        workload._init(spec, None, None, (astuple(sampler), spec, layer_index))
        return workload

    def _init(self, spec, omap, imap, recipe) -> None:
        self.spec = spec
        self.recipe = recipe
        self._omap = omap
        self._imap = imap
        self._imap_cols: np.ndarray | None = None
        self._slice_cache: dict = {}

    def _check_shapes(self) -> None:
        expected_o = (self.spec.out_channels, self.spec.out_h, self.spec.out_w)
        if self._omap.shape != expected_o:
            raise ValueError(f"omap shape {self._omap.shape} != {expected_o}")
        expected_i = (self.spec.in_channels, self.spec.in_h, self.spec.in_w)
        if self._imap.shape != expected_i:
            raise ValueError(f"imap shape {self._imap.shape} != {expected_i}")
        # the reference path sums map values as MAC counts, and the fast
        # path accumulates them in uint8: anything but 0/1 is an error
        for name, array in (("omap", self._omap), ("imap", self._imap)):
            if not _is_binary(array):
                raise ValueError(f"{name} holds values outside {{0, 1}}")

    def _draw(self) -> None:
        fields, spec, layer_index = self.recipe
        omap, imap = SparsityModel(*fields)._cnn_maps(spec, layer_index)
        omap.flags.writeable = False
        imap.flags.writeable = False
        self._omap, self._imap = omap, imap
        self._check_shapes()

    @property
    def omap(self) -> np.ndarray:
        """Switching map ``(C_out, H', W')``; drawn on first access."""
        if self._omap is None:
            self._draw()
        return self._omap

    @property
    def imap(self) -> np.ndarray:
        """Input sparsity map ``(C_in, H, W)``; drawn on first access."""
        if self._imap is None:
            self._draw()
        return self._imap

    def __repr__(self) -> str:
        return f"CnnLayerWorkload(spec={self.spec!r}, recipe={self.recipe!r})"

    @property
    def sensitive_fraction(self) -> float:
        """Fraction of outputs the Executor must compute."""
        return float(self.omap.mean())

    @property
    def input_density(self) -> float:
        """Fraction of nonzero input activations."""
        return float(self.imap.mean())

    def _receptive_columns(self) -> np.ndarray:
        """im2col of the IMap: ``(positions, receptive_field)`` of 0/1."""
        if self._imap_cols is None:
            self._imap_cols = im2col(
                self.imap[None].astype(np.float32),
                (self.spec.kernel, self.spec.kernel),
                self.spec.stride,
                self.spec.padding,
            )
        return self._imap_cols

    def position_costs(self) -> np.ndarray:
        """Nonzero input count per receptive field, shape ``(H', W')``.

        These are the MACs one sensitive output at that position costs
        under input switching (ignoring intra-row imbalance).
        """
        cols = self._receptive_columns()
        return cols.sum(axis=1).reshape(self.spec.out_h, self.spec.out_w)

    def position_cycles(self, cols_per_row: int, use_imap: bool) -> np.ndarray:
        """Synchronized per-position cycles for one PE row, shape ``(P,)``.

        The receptive field is split into ``cols_per_row`` contiguous
        slices (one per PE); psums accumulate horizontally each cycle, so
        the position completes when the busiest PE finishes.  Without
        input switching every slice is dense and the cost is uniform.
        """
        require_range("cols_per_row", cols_per_row, gt=0)
        receptive = self.spec.receptive_field
        dense_cycles = -(-receptive // cols_per_row)  # ceil
        positions = self.spec.out_h * self.spec.out_w
        if not use_imap:
            return np.full(positions, dense_cycles, dtype=np.int64)
        key = ("slice", cols_per_row)
        if key not in self._slice_cache:
            cols = self._receptive_columns()
            pad = dense_cycles * cols_per_row - receptive
            if pad:
                cols = np.pad(cols, ((0, 0), (0, pad)))
            slices = cols.reshape(positions, cols_per_row, dense_cycles)
            self._slice_cache[key] = (
                slices.sum(axis=2).max(axis=1).astype(np.int64)
            )
        return self._slice_cache[key]

    def channel_cycles(
        self, cols_per_row: int, use_output_switching: bool, use_imap: bool
    ) -> np.ndarray:
        """Row cycles per output channel, shape ``(C_out,)``.

        A channel's row spends :meth:`position_cycles` on every position it
        computes: all of them when output switching is off, only sensitive
        ones otherwise.
        """
        cycles = self.position_cycles(cols_per_row, use_imap)
        if not use_output_switching:
            total = int(cycles.sum())
            return np.full(self.spec.out_channels, total, dtype=np.int64)
        flat_omap = self.omap.reshape(self.spec.out_channels, -1)
        return flat_omap.astype(np.int64) @ cycles

    def channel_tile_cycles(
        self,
        cols_per_row: int,
        use_output_switching: bool,
        use_imap: bool,
        tile_positions: int,
    ) -> np.ndarray:
        """Row cycles per (channel, spatial tile), shape ``(C_out, S)``.

        The Executor advances in steps of ``tile_positions`` output
        positions (paper Fig. 7: each step a PE line produces a small
        output tile), and PE rows synchronise at step boundaries.  These
        per-tile cycles feed the step-granular latency model; their
        within-tile variance is what makes fine-grained steps lose
        utilisation under irregular sparsity.
        """
        require_range("tile_positions", tile_positions, gt=0)
        cycles = self.position_cycles(cols_per_row, use_imap)
        positions = cycles.shape[0]
        num_tiles = -(-positions // tile_positions)
        pad = num_tiles * tile_positions - positions
        if use_output_switching:
            flat_omap = self.omap.reshape(self.spec.out_channels, -1)
            per_pos = flat_omap.astype(np.int64) * cycles[None, :]
        else:
            per_pos = np.broadcast_to(
                cycles[None, :], (self.spec.out_channels, positions)
            ).copy()
        if pad:
            per_pos = np.pad(per_pos, ((0, 0), (0, pad)))
        return per_pos.reshape(self.spec.out_channels, num_tiles, tile_positions).sum(
            axis=2
        )

    # -- vectorized fast-path kernels ---------------------------------------
    #
    # The methods below compute exactly the same integers as their
    # reference counterparts (``position_cycles(cols, True)``,
    # ``position_costs``, ``channel_tile_cycles``,
    # ``channel_tile_switch_counts``, ``int(channel_macs(...).sum())``) but
    # never build the float32 im2col of the IMap nor any (C_out,
    # positions) int64 intermediate.  Receptive-field nonzero counts come
    # from per-channel k x k window sums of the 0/1 IMap (separable
    # shifted adds in uint8), and each PE slice's count is a channel-block
    # sum of them plus at most k² strided taps where a slice boundary falls
    # inside a channel.  Every per-tile aggregate is a short loop of
    # strided column adds (:func:`_strided_sums`) over the uint8 OMap, in
    # the narrowest unsigned dtype that holds its bound: ``T`` for a tile's
    # switch count, ``T * max(position cycles)`` for its cycles, ``window
    # * T`` for a window sum.  The Reorder Unit's per-window channel order
    # buckets the integer window sums through a lookup table of the
    # reference's own float ``searchsorted`` and sorts the bucket ids with
    # a small-int stable argsort.  Results are memoized on the workload
    # (the maps are immutable inputs to a simulation run), so a
    # DUET-vs-BASE sweep or a repeated benchmark pays for each kernel once.
    # All arithmetic is integer and bounded, hence bit-identical to the
    # reference; im2col stays on the reference path (the oracle) and in
    # ``repro.baselines`` only.

    def _padded_imap(self) -> np.ndarray:
        """The IMap as uint8, zero-padded by the layer's padding."""
        imap = self.imap
        p = self.spec.padding
        if not p and imap.dtype == np.uint8:
            return imap
        c, h, w = imap.shape
        padded = np.zeros((c, h + 2 * p, w + 2 * p), dtype=np.uint8)
        padded[:, p : p + h, p : p + w] = imap
        return padded

    def _window_sums(self, padded: np.ndarray) -> np.ndarray:
        """Per-channel k x k window sums of ``padded``, shape ``(C_in, H', W')``.

        Separable: k strided column shifts, then k strided row shifts.
        Each sum counts at most k² ones, so uint8 (uint16 once k² > 255)
        holds it exactly.
        """
        spec = self.spec
        k, s = spec.kernel, spec.stride
        span_h = s * (spec.out_h - 1) + 1
        span_w = s * (spec.out_w - 1) + 1
        dtype = np.uint8 if k * k <= 255 else np.uint16
        rows = np.zeros(padded.shape[:2] + (spec.out_w,), dtype=dtype)
        for j in range(k):
            rows += padded[:, :, j : j + span_w : s]
        sums = np.zeros((padded.shape[0], spec.out_h, spec.out_w), dtype=dtype)
        for i in range(k):
            sums += rows[:, i : i + span_h : s]
        return sums

    def _tap_sum(
        self, padded: np.ndarray, channel: int, start: int, stop: int
    ) -> np.ndarray:
        """Sum of kernel taps ``[start, stop)`` of one input channel, as int32
        ``(H', W')`` -- the im2col columns ``channel * k² + tap``."""
        spec = self.spec
        k, s = spec.kernel, spec.stride
        span_h = s * (spec.out_h - 1) + 1
        span_w = s * (spec.out_w - 1) + 1
        total = np.zeros((spec.out_h, spec.out_w), dtype=np.int32)
        for tap in range(start, stop):
            i, j = divmod(tap, k)
            total += padded[channel, i : i + span_h : s, j : j + span_w : s]
        return total

    def position_costs_fast(self) -> np.ndarray:
        """:meth:`position_costs` without im2col, as int64 ``(P,)`` (memoized)."""
        key = ("costs_fast",)
        if key not in self._slice_cache:
            sums = self._window_sums(self._padded_imap())
            self._slice_cache[key] = sums.sum(axis=0, dtype=np.int64).reshape(-1)
        return self._slice_cache[key]

    def position_cycles_fast(self, cols_per_row: int) -> np.ndarray:
        """``position_cycles(cols_per_row, use_imap=True)`` without im2col.

        Slice ``j`` covers im2col columns ``[j*D, (j+1)*D)`` with ``D =
        ceil(R / cols_per_row)``; its count is the window sums of the
        channels it covers whole plus the taps of a channel it cuts.  The
        slice counts add up to :meth:`position_costs_fast`, which is
        memoized on the way.
        """
        require_range("cols_per_row", cols_per_row, gt=0)
        key = ("cycles_fast", cols_per_row)
        if key in self._slice_cache:
            return self._slice_cache[key]
        spec = self.spec
        taps = spec.kernel * spec.kernel
        receptive = spec.receptive_field
        width = -(-receptive // cols_per_row)
        padded = self._padded_imap()
        sums = self._window_sums(padded)
        busiest = np.zeros((spec.out_h, spec.out_w), dtype=np.int32)
        total = np.zeros((spec.out_h, spec.out_w), dtype=np.int64)
        for start in range(0, receptive, width):
            first, head = divmod(start, taps)
            last, tail = divmod(min(start + width, receptive), taps)
            if first == last:
                count = self._tap_sum(padded, first, head, tail)
            else:
                whole = first + 1 if head else first
                count = sums[whole:last].sum(axis=0, dtype=np.int32)
                if head:
                    count += self._tap_sum(padded, first, head, taps)
                if tail:
                    count += self._tap_sum(padded, last, 0, tail)
            np.maximum(busiest, count, out=busiest)
            total += count
        cycles = busiest.reshape(-1).astype(np.int64)
        self._slice_cache[key] = cycles
        self._slice_cache.setdefault(("costs_fast",), total.reshape(-1))
        return cycles

    def _flat_omap(self) -> np.ndarray:
        """The OMap as uint8 ``(C_out, positions)`` (memoized)."""
        key = ("omap_flat",)
        if key not in self._slice_cache:
            flat = self.omap.reshape(self.spec.out_channels, -1)
            self._slice_cache[key] = flat.astype(np.uint8, copy=False)
        return self._slice_cache[key]

    @property
    def sensitive_total(self) -> int:
        """Total sensitive outputs, ``int(omap.sum())`` (memoized)."""
        key = ("sensitive_total",)
        if key not in self._slice_cache:
            # exact: the map is validated 0/1
            self._slice_cache[key] = int(np.count_nonzero(self.omap))
        return self._slice_cache[key]

    def channel_tile_cycles_fast(
        self, cols_per_row: int, use_imap: bool, tile_positions: int
    ) -> np.ndarray:
        """``channel_tile_cycles(cols_per_row, True, use_imap,
        tile_positions)`` with output switching on (bit-identical).

        A layer without output switching is uniform and needs no per-tile
        cycles (the executor prices it in closed form).  A tile's cycles
        are at most ``tile_positions * max(position cycles)``, and the
        result is held in the narrowest unsigned dtype of that bound
        (usually uint16).
        """
        require_range("tile_positions", tile_positions, gt=0)
        key = ("tiles_fast", cols_per_row, use_imap, tile_positions)
        if key in self._slice_cache:
            return self._slice_cache[key]
        if use_imap:
            cycles = self.position_cycles_fast(cols_per_row)
        else:
            cycles = self.position_cycles(cols_per_row, use_imap=False)
        bound = tile_positions * int(cycles.max())
        if not use_imap:
            # uniform per-position cost: tile cost = sensitive count x cost,
            # multiplied in the bound's dtype (a bare scalar would keep the
            # counts' uint8 under either numpy casting rule, and wrap)
            dtype = np.min_scalar_type(bound)
            result = np.multiply(
                self.channel_tile_switch_counts_fast(tile_positions),
                dtype.type(cycles[0]),
                dtype=dtype,
            )
        else:
            result = _strided_sums(
                self._flat_omap(), tile_positions, bound, weights=cycles
            )
        self._slice_cache[key] = result
        return result

    def channel_tile_switch_counts_fast(self, tile_positions: int) -> np.ndarray:
        """Batched equivalent of :meth:`channel_tile_switch_counts`, in the
        narrowest unsigned dtype holding ``tile_positions`` (usually uint8)."""
        require_range("tile_positions", tile_positions, gt=0)
        key = ("tile_counts_fast", tile_positions)
        if key not in self._slice_cache:
            self._slice_cache[key] = _strided_sums(
                self._flat_omap(), tile_positions, tile_positions
            )
        return self._slice_cache[key]

    def window_order_fast(
        self, tile_positions: int, window: int, buckets: int
    ) -> np.ndarray:
        """The Reorder Unit's channel order per tile window (memoized).

        Row ``w`` of the ``(num_windows, C_out)`` result lists the channels
        of window ``w`` by descending bucketed switching-index sum, ties in
        channel order: exactly ``np.argsort(-bucketed, axis=0,
        kind="stable").T`` of the reference's float arithmetic.  The
        window sums are integers of at most ``window * tile_positions``
        (``window`` strided adds of the tile counts), so one lookup table
        of the reference's ``searchsorted`` over ``0..hi`` buckets them
        (same edges, same inputs, same outputs), and ``top - bucket`` in
        the narrowest unsigned dtype turns the descending float sort into
        an ascending small-int stable sort (a radix sort in numpy).  The
        order is kept as uint16 when channel ids fit, and shared by every
        stage with the same tiling, window and buckets.
        """
        require_range("tile_positions", tile_positions, gt=0)
        require_range("window", window, gt=0)
        require_range("buckets", buckets, gt=0)
        key = ("window_order_fast", tile_positions, window, buckets)
        if key in self._slice_cache:
            return self._slice_cache[key]
        counts = self.channel_tile_switch_counts_fast(tile_positions)
        num_channels = counts.shape[0]
        window_counts = _strided_sums(counts, window, window * tile_positions)
        # all-zero sums (the reference keeps them raw) map to one key
        # here: every channel ties either way, so the order is the same
        hi = int(window_counts.max())
        edges = np.linspace(0.0, float(hi), buckets + 1)[1:-1]
        bucket = np.searchsorted(edges, np.arange(hi + 1, dtype=np.float64))
        top = buckets - 1
        lut = (top - bucket).astype(np.min_scalar_type(top))
        keys = np.ascontiguousarray(lut[window_counts].T)
        order = np.argsort(keys, axis=1, kind="stable")
        if num_channels <= 1 << 16:
            order = order.astype(np.uint16)
        self._slice_cache[key] = order
        return order

    def executed_macs_total(self, use_output_switching: bool, use_imap: bool) -> int:
        """Integer-exact total of ``channel_macs(...)`` (memoized).

        Equals ``int(channel_macs(use_output_switching, use_imap).sum())``:
        every value involved is an integer below 2**53, so the reference's
        float64 accumulation is exact and the integer computation here
        matches it bit for bit.
        """
        key = ("executed_total", use_output_switching, use_imap)
        if key in self._slice_cache:
            return self._slice_cache[key]
        positions = self.spec.out_h * self.spec.out_w
        if use_imap:
            costs = self.position_costs_fast()
            if use_output_switching:
                # at most C_out sensitive channels per position
                per_position = self._flat_omap().sum(
                    axis=0, dtype=np.min_scalar_type(self.spec.out_channels)
                )
                total = int(per_position @ costs)
            else:
                total = self.spec.out_channels * int(costs.sum())
        else:
            sensitive = (
                self.sensitive_total
                if use_output_switching
                else self.spec.out_channels * positions
            )
            total = sensitive * self.spec.receptive_field
        self._slice_cache[key] = total
        return total

    def channel_macs(self, use_output_switching: bool, use_imap: bool) -> np.ndarray:
        """Executed MACs per output channel, shape ``(C_out,)``."""
        if use_imap:
            costs = self.position_costs().reshape(-1)
        else:
            costs = np.full(
                self.spec.out_h * self.spec.out_w,
                self.spec.receptive_field,
                dtype=np.float64,
            )
        if not use_output_switching:
            return np.full(self.spec.out_channels, float(costs.sum()))
        flat_omap = self.omap.reshape(self.spec.out_channels, -1)
        return flat_omap.astype(np.float64) @ costs

    def channel_tile_switch_counts(self, tile_positions: int) -> np.ndarray:
        """Switching-index sums per (channel, tile), shape ``(C_out, S)``.

        This is exactly what the Reorder Unit computes: "this number does
        not represent the workloads for the whole channel, but for the
        tile that will be processed within one computation step" (paper
        Section IV-A).  The adaptive mapping regroups channels per tile
        window using these sums -- it sees switching bits only, not the
        true MAC costs under input sparsity, which is one reason DUET's
        utilisation stays below BOS's.
        """
        require_range("tile_positions", tile_positions, gt=0)
        flat = self.omap.reshape(self.spec.out_channels, -1).astype(np.int64)
        positions = flat.shape[1]
        num_tiles = -(-positions // tile_positions)
        pad = num_tiles * tile_positions - positions
        if pad:
            flat = np.pad(flat, ((0, 0), (0, pad)))
        return flat.reshape(self.spec.out_channels, num_tiles, tile_positions).sum(
            axis=2
        )


@dataclass
class FcLayerWorkload:
    """Simulator input for one fully-connected layer (one input vector).

    FC layers in CNNs are weight-dominated (AlexNet's fc6 alone holds 38M
    parameters), so -- like RNN gates -- their cost is fetching weight
    rows; the switching map gates both the GEMV rows and the DRAM traffic
    (paper Section VI: "our design can also save memory access of FC and
    RNN layers").

    Attributes:
        spec: the layer shape.
        omap: switching map of shape ``(out_features,)`` (1 = sensitive).
        imap: input sparsity map of shape ``(in_features,)`` (1 = nonzero).
    """

    spec: FCSpec
    omap: np.ndarray
    imap: np.ndarray

    def __post_init__(self):
        if self.omap.shape != (self.spec.out_features,):
            raise ValueError(
                f"omap shape {self.omap.shape} != ({self.spec.out_features},)"
            )
        if self.imap.shape != (self.spec.in_features,):
            raise ValueError(
                f"imap shape {self.imap.shape} != ({self.spec.in_features},)"
            )
        # both maps are summed as row and MAC counts
        for name, array in (("omap", self.omap), ("imap", self.imap)):
            if not _is_binary(array):
                raise ValueError(f"{name} holds values outside {{0, 1}}")

    @property
    def sensitive_count(self) -> int:
        """Number of output rows the Executor computes."""
        return int(self.omap.sum())

    @property
    def sensitive_fraction(self) -> float:
        """Fraction of sensitive outputs."""
        return float(self.omap.mean())

    @property
    def input_density(self) -> float:
        """Fraction of nonzero inputs."""
        return float(self.imap.mean())


@dataclass
class RnnLayerWorkload:
    """Simulator input for one recurrent layer over a sequence.

    Attributes:
        spec: the layer shape.
        sensitive_counts: array of shape ``(T, G)`` -- per time step and
            gate, how many of the ``H`` output neurons are sensitive (rows
            the Executor computes and whose weights must be fetched).
    """

    spec: RNNSpec
    sensitive_counts: np.ndarray

    def __post_init__(self):
        expected = (self.spec.seq_len, self.spec.num_gates)
        if self.sensitive_counts.shape != expected:
            raise ValueError(
                f"sensitive_counts shape {self.sensitive_counts.shape} != {expected}"
            )
        # a float count truncates, and NaN passes the range check below
        if self.sensitive_counts.dtype.kind not in "iu":
            raise ValueError(
                "sensitive_counts must hold integers, got dtype "
                f"{self.sensitive_counts.dtype}"
            )
        if self.sensitive_counts.min() < 0 or self.sensitive_counts.max() > self.spec.hidden_size:
            raise ValueError("sensitive counts out of [0, hidden_size]")

    @property
    def sensitive_fraction(self) -> float:
        """Overall fraction of sensitive gate outputs."""
        total = self.spec.seq_len * self.spec.num_gates * self.spec.hidden_size
        return float(self.sensitive_counts.sum() / total)


@dataclass
class SparsityModel:
    """Two-level (channel, position) sparsity generator.

    Attributes:
        cnn_sensitive_mean: mean fraction of sensitive CONV outputs.  The
            paper's OS numbers put typical CONV computation sparsity around
            55-70% (CONV5 of AlexNet: 65.5%), i.e. sensitive ~ 0.3-0.45.
        cnn_channel_concentration: Beta concentration of per-channel rates;
            ~2-4 reproduces the strong imbalance the paper reports (OS MAC
            utilisation < 50%).
        cnn_input_density: fraction of nonzero inputs (post-ReLU typical
            ~0.3-0.45 on ImageNet CNNs).
        cnn_input_concentration: Beta concentration of per-input-channel
            densities.  Real feature maps have strongly channel-dependent
            sparsity; since a PE row's reduction slices span contiguous
            input-channel blocks, this variance drives the *within-row*
            imbalance that caps IOS utilisation (paper: ~30%).
        first_layer_dense: layer index 0 has no upstream OMap/IMap -- run
            it densely, matching the paper's pipeline (speculation for
            layer L+1 happens while executing L).
        rnn_sensitive_mean: mean sensitive fraction of RNN gate outputs
            (saturation regions cover most of sigmoid/tanh mass; the
            paper's RNN weight-fetch latency drops from 0.65 to 0.30 ms,
            i.e. roughly half the rows are fetched).
        rnn_step_std: relative std-dev of the per-step sensitive fraction.
        seed: base RNG seed; per-layer streams derive from it.

    Construction validates every numeric field and raises ``ValueError``
    naming the first field out of range.
    """

    cnn_sensitive_mean: float = 0.38
    cnn_channel_concentration: float = 3.0
    cnn_input_density: float = 0.35
    cnn_input_concentration: float = 1.0
    first_layer_dense: bool = True
    rnn_sensitive_mean: float = 0.45
    rnn_step_std: float = 0.08
    seed: int = 0

    def __post_init__(self):
        # checked here rather than by numpy mid-simulation; a NaN mean
        # would otherwise sample an all-zero map and price it silently
        check_range(self, "cnn_sensitive_mean", "cnn_input_density", gt=0, lt=1)
        check_range(
            self, "cnn_channel_concentration", "cnn_input_concentration", gt=0
        )
        check_range(self, "rnn_sensitive_mean", ge=0, le=1)
        check_range(self, "rnn_step_std", ge=0)
        if (
            not isinstance(self.seed, numbers.Integral)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ValueError(
                f"SparsityModel.seed must be a non-negative int, got {self.seed!r}"
            )

    def _rng(self, layer_index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, layer_index))

    def cnn_layer(self, spec: ConvSpec, layer_index: int) -> CnnLayerWorkload:
        """The OMap/IMap workload for one CONV layer, drawn lazily.

        The maps are a pure function of ``(self, spec, layer_index)`` --
        the per-layer stream is ``default_rng((seed, layer_index))`` -- so
        the workload carries that recipe and samples on first access.
        """
        return CnnLayerWorkload.sampled(self, spec, layer_index)

    def _cnn_maps(
        self, spec: ConvSpec, layer_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``(omap, imap)`` for one CONV layer."""
        rng = self._rng(layer_index)
        dense = self.first_layer_dense and layer_index == 0
        if dense:
            omap = np.ones((spec.out_channels, spec.out_h, spec.out_w), dtype=np.uint8)
            imap = np.ones((spec.in_channels, spec.in_h, spec.in_w), dtype=np.uint8)
            return omap, imap
        mean = self.cnn_sensitive_mean
        conc = self.cnn_channel_concentration
        p_channels = rng.beta(mean * conc, (1.0 - mean) * conc, size=spec.out_channels)
        omap = _bernoulli_map(rng, p_channels, spec.out_h, spec.out_w)
        in_mean = self.cnn_input_density
        in_conc = self.cnn_input_concentration
        p_inputs = rng.beta(
            in_mean * in_conc, (1.0 - in_mean) * in_conc, size=spec.in_channels
        )
        imap = _bernoulli_map(rng, p_inputs, spec.in_h, spec.in_w)
        return omap, imap

    def rnn_layer(self, spec: RNNSpec, layer_index: int) -> RnnLayerWorkload:
        """Sample per-step per-gate sensitive counts for one RNN layer."""
        rng = self._rng(layer_index)
        fracs = rng.normal(
            self.rnn_sensitive_mean,
            self.rnn_step_std,
            size=(spec.seq_len, spec.num_gates),
        )
        fracs = np.clip(fracs, 0.0, 1.0)
        counts = rng.binomial(spec.hidden_size, fracs)
        return RnnLayerWorkload(spec, counts.astype(np.int64))

    def fc_layer(self, spec: FCSpec, layer_index: int) -> FcLayerWorkload:
        """Sample the switching/input maps for one FC layer.

        FC layers follow ReLU conv stacks, so their input density matches
        the CNN input density and their sensitive fraction the CNN mean.
        """
        rng = self._rng(layer_index)
        omap = (rng.random(spec.out_features) < self.cnn_sensitive_mean).astype(
            np.uint8
        )
        imap = (rng.random(spec.in_features) < self.cnn_input_density).astype(
            np.uint8
        )
        return FcLayerWorkload(spec, omap, imap)


def cnn_workloads(
    model: ModelSpec,
    sparsity: SparsityModel | None = None,
    include_fc: bool = False,
) -> list:
    """Workloads for the layers of a CNN model spec, in order.

    By default only CONV layers are included, matching the paper's CNN
    evaluation (Fig. 12's breakdowns are CONV-only; FC layers contribute
    <10% of CNN MACs).  Pass ``include_fc=True`` to also generate
    :class:`FcLayerWorkload` entries for the classifier layers -- the FC
    path exercises the weight-row gating the paper highlights for
    memory-bound layers (Section VI).  The final classifier layer (no
    ReLU) always stays dense.
    """
    if model.domain != "cnn":
        raise ValueError(f"{model.name} is not a CNN model")
    sparsity = sparsity if sparsity is not None else SparsityModel()
    workloads: list = [
        sparsity.cnn_layer(spec, i) for i, spec in enumerate(model.conv_layers)
    ]
    if include_fc:
        fc_specs = [l for l in model.layers if isinstance(l, FCSpec)]
        for j, spec in enumerate(fc_specs):
            index = len(model.conv_layers) + j
            wl = sparsity.fc_layer(spec, index)
            if j == len(fc_specs) - 1:  # the logits layer has no ReLU
                wl = FcLayerWorkload(
                    spec,
                    np.ones(spec.out_features, dtype=np.uint8),
                    wl.imap,
                )
            workloads.append(wl)
    return workloads


def rnn_workloads(
    model: ModelSpec, sparsity: SparsityModel | None = None
) -> list[RnnLayerWorkload]:
    """Workloads for every recurrent layer of an RNN model spec, in order."""
    if model.domain != "rnn":
        raise ValueError(f"{model.name} is not an RNN model")
    sparsity = sparsity if sparsity is not None else SparsityModel()
    return [
        sparsity.rnn_layer(spec, i) for i, spec in enumerate(model.rnn_layers)
    ]
