"""Functional Executor-array simulation: actually run a CONV layer.

The analytical models in :mod:`repro.sim.executor` estimate cycles from
workload statistics.  This module closes the loop with a *functional*
simulation: a 2D array of :class:`~repro.sim.pe.PE` objects executes a
real convolution through MAC-instruction LUTs, with OMap/IMap tag bits and
the channel-per-row mapping of paper Fig. 7a, delivering data over the
:class:`~repro.sim.noc.MulticastNoc`.

It returns both the numerically exact output feature map (so tests can
diff it against :class:`repro.nn.layers.Conv2d`) and per-PE cycle counts
(so tests can verify that skipping and imbalance behave the way the
analytical model assumes).  It is built for small layers -- it runs each
MAC in Python -- and is the ground truth the fast model is validated
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.sim.config import DuetConfig
from repro.sim.noc import MulticastNoc
from repro.sim.pe import PE, MacInstruction

__all__ = ["FunctionalExecutorArray", "FunctionalRunResult"]


@dataclass
class FunctionalRunResult:
    """Outcome of one functional layer execution.

    Attributes:
        output: pre-activation ofmap of shape ``(C_out, H', W')``; entries
            whose switching bit is 0 are exactly zero (never computed).
        total_cycles: sum over steps of the slowest row's cycles (rows
            synchronise per scheduling step, as in the cycle model).
        row_cycles: per-PE-row busy cycles, shape ``(rows,)``.
        macs_executed / macs_skipped: array-wide MAC counters.
        noc: the multicast NoC with its delivery statistics.
    """

    output: np.ndarray
    total_cycles: int
    row_cycles: np.ndarray
    macs_executed: int
    macs_skipped: int
    noc: MulticastNoc


class FunctionalExecutorArray:
    """A functional ``rows x cols`` PE array running CONV layers.

    The mapping follows paper Fig. 7a at row granularity: each scheduling
    step assigns one output channel per PE row; the row's PEs split the
    reduction dimension (receptive field) and the step lasts as long as
    its busiest PE.  A MAC's tag bit is its output's OMap bit AND, when an
    IMap is given, its input's IMap bit.

    This is an executable specification, not a performance model: use
    :class:`~repro.sim.executor.ExecutorModel` for large layers.
    """

    def __init__(self, config: DuetConfig | None = None):
        self.config = config if config is not None else DuetConfig()
        rows, cols = self.config.executor_rows, self.config.executor_cols
        self.pes = [[PE() for _ in range(cols)] for _ in range(rows)]
        self.noc = MulticastNoc(rows, cols)

    def run_conv(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        omap: np.ndarray,
        imap: np.ndarray | None = None,
        stride: int = 1,
        padding: int = 0,
        schedule: list[list[int]] | None = None,
        stuck_rows: frozenset[int] | set[int] = frozenset(),
        route_around_faults: bool = False,
    ) -> FunctionalRunResult:
        """Execute one CONV layer functionally.

        Args:
            x: input of shape ``(C_in, H, W)`` (single image).
            weight: filters of shape ``(C_out, C_in, k, k)``.
            omap: switching map ``(C_out, H', W')`` -- 1 = compute.
            imap: optional input sparsity map ``(C_in, H, W)``; when given,
                MACs on zero-tagged inputs are skipped (their input values
                are treated as zero, which the tags guarantee is lossless
                only if the caller zeroed those inputs -- this method
                enforces it by masking).
            stride/padding: convolution geometry.
            schedule: channel groups per scheduling step; defaults to the
                naive in-order grouping.
            stuck_rows: physical PE-row indices whose MAC datapath is stuck
                (fault-injection hook for :mod:`repro.reliability`).  A
                stuck row burns cycles but its accumulator reads back zero.
            route_around_faults: when True the scheduler knows which rows
                are stuck (BIST detected them) and assigns channels only to
                healthy rows, preserving exact outputs at reduced
                throughput -- the graceful-degradation path.  When False,
                channels mapped to stuck rows silently produce zeros (the
                unguarded failure the reliability tests must observe).

        Returns:
            A :class:`FunctionalRunResult`.
        """
        cfg = self.config
        rows, cols = cfg.executor_rows, cfg.executor_cols
        stuck = frozenset(stuck_rows)
        for r in stuck:
            if not 0 <= r < rows:
                raise ValueError(f"stuck row {r} outside [0, {rows})")
        if route_around_faults:
            active_rows = [r for r in range(rows) if r not in stuck]
            if not active_rows:
                raise ValueError("every PE row is stuck; nothing can execute")
        else:
            active_rows = list(range(rows))
        x = np.asarray(x, dtype=np.float64)
        weight = np.asarray(weight, dtype=np.float64)
        c_out, c_in, kh, kw = weight.shape
        if x.shape[0] != c_in:
            raise ValueError(f"input channels {x.shape[0]} != filter {c_in}")
        if kh != kw:
            raise ValueError("functional array supports square kernels only")
        out_h = F.conv_output_size(x.shape[1], kh, stride, padding)
        out_w = F.conv_output_size(x.shape[2], kw, stride, padding)
        if omap.shape != (c_out, out_h, out_w):
            raise ValueError(
                f"omap shape {omap.shape} != {(c_out, out_h, out_w)}"
            )
        if imap is not None:
            if imap.shape != x.shape:
                raise ValueError(f"imap shape {imap.shape} != {x.shape}")
            x = x * imap  # enforce the lossless-skip precondition

        # receptive-field columns (positions x C_in*k*k) and their masks
        cols_mat = F.im2col(x[None], (kh, kw), stride, padding)
        if imap is not None:
            mask_mat = F.im2col(
                imap[None].astype(np.float64), (kh, kw), stride, padding
            ).astype(bool)
        else:
            mask_mat = np.ones_like(cols_mat, dtype=bool)
        flat_weights = weight.reshape(c_out, -1)
        receptive = c_in * kh * kw
        positions = out_h * out_w

        # static per-position instruction schedule: PE j of a row handles
        # reduction slice [j*slice_len, (j+1)*slice_len)
        slice_len = -(-receptive // cols)
        group_size = len(active_rows)
        if schedule is None:
            schedule = [
                list(range(start, min(start + group_size, c_out)))
                for start in range(0, c_out, group_size)
            ]
        elif any(len(group) > group_size for group in schedule):
            raise ValueError(
                f"schedule group exceeds the {group_size} usable PE rows"
            )

        output = np.zeros((c_out, positions))
        flat_omap = np.asarray(omap).reshape(c_out, positions).astype(bool)
        row_cycles = np.zeros(rows, dtype=np.int64)
        total_cycles = 0
        for pe_row in self.pes:
            for pe in pe_row:
                pe.reset()

        if cfg.fast_path and not stuck:
            # batched execution: identical cycle/MAC/NoC accounting (all
            # counters are linear sums of per-event integers), output via
            # one matmul (equal to the per-MAC accumulation within float
            # tolerance).  Fault injection keeps the per-event path: stuck
            # rows interleave with delivery and accumulation order.
            return self._run_conv_fast(
                cols_mat,
                mask_mat,
                flat_weights,
                flat_omap,
                schedule,
                receptive,
                slice_len,
                out_h,
                out_w,
            )

        for group in schedule:
            # weights multicast: each row receives its channel's filter
            self.noc.deliver(
                receptive, set(active_rows[: len(group)]), set(range(cols))
            )
            step_row_cycles = np.zeros(rows, dtype=np.int64)
            for slot, channel in enumerate(group):
                row_idx = active_rows[slot]
                row_is_stuck = row_idx in stuck
                pe_row = self.pes[row_idx]
                w_flat = flat_weights[channel]
                for pos in range(positions):
                    if not flat_omap[channel, pos]:
                        for pe in pe_row:
                            pe.macs_skipped += slice_len
                        continue
                    # ifmap slice broadcast to the row
                    self.noc.deliver(receptive, {row_idx}, set(range(cols)))
                    acc = 0.0
                    pe_costs = np.zeros(cols, dtype=np.int64)
                    for j, pe in enumerate(pe_row):
                        lo = j * slice_len
                        hi = min(receptive, lo + slice_len)
                        if lo >= receptive:
                            break
                        pe.load_tile(
                            cols_mat[pos, lo:hi], w_flat[lo:hi], psum_size=1
                        )
                        instructions = [
                            MacInstruction(ia=i, w=i, oa=0)
                            for i in range(hi - lo)
                        ]
                        tags = mask_mat[pos, lo:hi]
                        psum = pe.run(instructions, tags)
                        acc += psum[0]
                        pe_costs[j] = int(tags.sum())
                    # a stuck row's accumulator reads back zero: the MACs
                    # ran (cycles and counters accrue) but the value is lost
                    output[channel, pos] = 0.0 if row_is_stuck else acc
                    # the position completes when the busiest PE finishes
                    step_row_cycles[row_idx] += int(pe_costs.max())
            row_cycles += step_row_cycles
            total_cycles += int(step_row_cycles.max()) if len(group) else 0

        executed = sum(pe.macs_executed for row in self.pes for pe in row)
        skipped = sum(pe.macs_skipped for row in self.pes for pe in row)
        return FunctionalRunResult(
            output=output.reshape(c_out, out_h, out_w),
            total_cycles=total_cycles,
            row_cycles=row_cycles,
            macs_executed=executed,
            macs_skipped=skipped,
            noc=self.noc,
        )

    def _run_conv_fast(
        self,
        cols_mat: np.ndarray,
        mask_mat: np.ndarray,
        flat_weights: np.ndarray,
        flat_omap: np.ndarray,
        schedule: list[list[int]],
        receptive: int,
        slice_len: int,
        out_h: int,
        out_w: int,
    ) -> FunctionalRunResult:
        """Vectorized fault-free execution (see :meth:`run_conv`).

        Cycle, MAC and NoC counters are bit-identical to the per-event
        loop: every reference counter is a sum of per-(position, slice)
        integers, aggregated here with int64 reductions, and the NoC's
        :class:`~repro.sim.noc.DeliveryStats` are linear in ``num_words``
        so per-position deliveries collapse into one call per (group,
        row).  Output values come from a single matmul over the masked
        receptive-field columns -- the same products in a different
        summation order, so they match the reference to float64 rounding
        (tests compare with ``allclose``; insensitive outputs stay exactly
        zero either way).
        """
        cfg = self.config
        rows, cols = cfg.executor_rows, cfg.executor_cols
        c_out = flat_weights.shape[0]
        positions = cols_mat.shape[0]

        # per-(position, PE-slice) live-MAC counts; slices beyond the
        # receptive field never execute (the reference loop breaks early)
        n_slices = -(-receptive // slice_len)
        pad = n_slices * slice_len - receptive
        mask_i = mask_mat.astype(np.int64)
        if pad:
            mask_i = np.pad(mask_i, ((0, 0), (0, pad)))
        slice_costs = mask_i.reshape(positions, n_slices, slice_len).sum(axis=2)
        pos_max = slice_costs.max(axis=1) if n_slices else np.zeros(
            positions, dtype=np.int64
        )
        slice_lens = np.minimum(
            receptive, (np.arange(n_slices) + 1) * slice_len
        ) - np.arange(n_slices) * slice_len

        omap_i = flat_omap.astype(np.int64)
        # per-channel aggregates over the channel's live positions
        chan_step_cycles = omap_i @ pos_max  # busiest-PE cycles per step
        chan_slice_execs = omap_i @ slice_costs  # (C, n_slices) live MACs
        live_counts = omap_i.sum(axis=1)
        dead_counts = positions - live_counts

        exec_rc = np.zeros((rows, cols), dtype=np.int64)
        skip_rc = np.zeros((rows, cols), dtype=np.int64)
        row_cycles = np.zeros(rows, dtype=np.int64)
        total_cycles = 0
        all_cols = set(range(cols))
        for group in schedule:
            self.noc.deliver(receptive, set(range(len(group))), all_cols)
            step_max = 0
            for slot, channel in enumerate(group):
                live = int(live_counts[channel])
                # one ifmap broadcast per live position, all to this row
                self.noc.deliver(receptive * live, {slot}, all_cols)
                exec_rc[slot, :n_slices] += chan_slice_execs[channel]
                skip_rc[slot, :n_slices] += (
                    live * slice_lens - chan_slice_execs[channel]
                )
                # insensitive positions charge slice_len skips to every PE
                skip_rc[slot, :] += int(dead_counts[channel]) * slice_len
                step = int(chan_step_cycles[channel])
                row_cycles[slot] += step
                step_max = max(step_max, step)
            total_cycles += step_max if len(group) else 0
        for r, pe_row in enumerate(self.pes):
            for j, pe in enumerate(pe_row):
                pe.cycles += int(exec_rc[r, j])
                pe.macs_executed += int(exec_rc[r, j])
                pe.macs_skipped += int(skip_rc[r, j])

        output = np.where(flat_omap, flat_weights @ cols_mat.T, 0.0)
        return FunctionalRunResult(
            output=output.reshape(c_out, out_h, out_w),
            total_cycles=total_cycles,
            row_cycles=row_cycles,
            macs_executed=int(exec_rc.sum()),
            macs_skipped=int(skip_rc.sum()),
            noc=self.noc,
        )
