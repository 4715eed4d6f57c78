"""Dataflow pipelines: CNN layer pipeline and RNN gate-level pipeline.

Implements paper Section IV:

- **CNNs** (IV-A): the Executor computes layer L tile by tile while the
  Speculator uses the finished tiles to speculate layer L+1's switching
  maps, so speculation latency is hidden unless the Speculator is the
  slower unit.  DRAM transfers double-buffer against compute.
- **RNNs** (IV-B): execution proceeds element by element, gate by gate.
  Speculation for gate g+1 runs during execution of gate g; only the
  input gate's speculation is exposed each step (its inputs depend on the
  previous step's hidden state).  Sensitive rows of each gate's weight
  matrix stream from DRAM; insensitive rows are never fetched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.models.layer_spec import BYTES_PER_ELEMENT, ModelSpec
from repro.sim.config import DuetConfig
from repro.sim.dram import Dram
from repro.sim.energy import EnergyBreakdown, EnergyModel
from repro.sim.executor import ExecutorModel
from repro.sim.report import LayerReport, ModelReport
from repro.sim.speculator import SpeculatorModel
from repro.sim.tiling import choose_tiling_cached
from repro.workloads.sparsity import (
    CnnLayerWorkload,
    FcLayerWorkload,
    RnnLayerWorkload,
)

if TYPE_CHECKING:  # avoid a runtime cycle with repro.reliability
    from repro.reliability.context import ReliabilityContext

__all__ = ["CnnPipeline", "RnnPipeline"]

#: local-buffer accesses charged per executed MAC (operand read + psum
#: read-modify-write amortised under row-stationary reuse).
_LOCAL_ACCESSES_PER_MAC = 2.0


class _UnitCache:
    """Executor/Speculator models keyed by configuration.

    Degradation switches the operating stage between layers; the stage
    configs of one run are few, so the analytical unit models are built
    once per distinct :class:`DuetConfig` (frozen, hence hashable) and
    reused.
    """

    def __init__(self):
        self._units: dict[DuetConfig, tuple[ExecutorModel, SpeculatorModel]] = {}

    def __call__(self, cfg: DuetConfig) -> tuple[ExecutorModel, SpeculatorModel]:
        units = self._units.get(cfg)
        if units is None:
            units = (ExecutorModel(cfg), SpeculatorModel(cfg))
            self._units[cfg] = units
        return units


class _Pipeline:
    """The per-layer account both dataflows share.

    Owns the layer loop -- DRAM set-up, the reliability context's
    degradation rung and guard hook, the report -- and the one builder
    that turns a layer's cycles, MACs and traffic into its
    :class:`LayerReport`.  Subclasses price one layer in :meth:`_layer`.

    Args:
        config: hardware/feature configuration (base stage).
        energy_model: per-event energy costs.
        reduction: Speculator workload-reduction factor.
        reliability: optional :class:`repro.reliability.context.ReliabilityContext`;
            when given, each layer runs at the context's current degradation
            stage, its workload passes through the fault injector and
            guards, and the finished report carries the reliability account.
    """

    def __init__(
        self,
        config: DuetConfig | None = None,
        energy_model: EnergyModel | None = None,
        reduction: float = 0.125,
        reliability: "ReliabilityContext | None" = None,
    ):
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.reduction = reduction
        self.reliability = reliability
        self._units = _UnitCache()

    def run(self, model: ModelSpec, workloads: list) -> ModelReport:
        """Simulate ``workloads`` (one per layer of ``model``, in order).

        Returns:
            A :class:`ModelReport` with per-layer breakdowns.
        """
        cfg = self.config
        ctx = self.reliability
        dram = ctx.make_dram(cfg.dram_bandwidth) if ctx else Dram(cfg.dram_bandwidth)
        report = ModelReport(model.name, cfg)

        for i, workload in enumerate(workloads):
            # under a reliability context the layer runs at the current
            # degradation-ladder rung, and its switching maps go through
            # the fault injector and the guards first
            cfg_now = ctx.effective_config(cfg) if ctx else cfg
            if ctx:
                workload = self._guard(ctx, i, workload, cfg_now)
            upcoming = workloads[i + 1] if i + 1 < len(workloads) else None
            report.layers.append(self._layer(workload, upcoming, cfg_now, dram))
            if ctx:
                ctx.finalize_layer(workload.spec.name)
        if ctx:
            report.reliability = ctx.summary()
        return report

    def _guard(self, ctx: "ReliabilityContext", index: int, workload, cfg: DuetConfig):
        """``workload`` after the context's fault injector and guards."""
        raise NotImplementedError

    def _layer(self, workload, upcoming, cfg: DuetConfig, dram: Dram) -> LayerReport:
        """Price one layer; ``upcoming`` is the next layer's workload or None."""
        raise NotImplementedError

    def _layer_report(
        self,
        name: str,
        *,
        executed_macs: int,
        speculator_energy: tuple[float, float],
        glb_words: int,
        dram_words: int,
        **fields,
    ) -> LayerReport:
        """The layer's :class:`LayerReport` with its energy split.

        ``speculator_energy`` is the (compute, buffers) pair of
        :meth:`SpeculationCost.energy`; every GLB word moved traverses
        the Y-bus plus one X-bus (2 NoC hops).  ``fields`` are the
        report's cycle fields, ``dense_macs`` and ``utilization``.
        """
        em = self.energy_model
        energy = EnergyBreakdown(
            executor_compute=executed_macs * em.mac_int16,
            executor_local=executed_macs * _LOCAL_ACCESSES_PER_MAC * em.local_access,
            speculator_compute=speculator_energy[0],
            speculator_buffers=speculator_energy[1],
            glb=glb_words * em.glb_access,
            noc=2 * glb_words * em.noc_hop,
            dram=dram_words * em.dram_access,
        )
        return LayerReport(
            name=name,
            executed_macs=executed_macs,
            energy=energy,
            dram_bytes=dram_words * BYTES_PER_ELEMENT,
            **fields,
        )


class CnnPipeline(_Pipeline):
    """Layer-pipelined CNN execution (paper Section IV-A).

    :meth:`run` takes one :class:`CnnLayerWorkload` per CONV layer, in
    order, optionally followed by :class:`FcLayerWorkload` entries for the
    classifier (see :func:`repro.workloads.sparsity.cnn_workloads`).
    """

    def _guard(self, ctx, index, workload, cfg):
        return ctx.process_cnn_workload(index, workload, cfg)

    def _conv_costs(self, workload: CnnLayerWorkload, cfg: DuetConfig):
        """(exec cycles, executed, dense, util, dram read words, write words).

        Off-chip traffic follows the GLB-constrained tiling of
        :mod:`repro.sim.tiling`: layers whose working set exceeds the GLB
        re-fetch the ifmap per output-channel group and/or spill psums,
        exactly as a real configuration generator would schedule them.
        """
        executor, _ = self._units(cfg)
        cost = executor.cnn_layer(workload)
        tiling = choose_tiling_cached(workload.spec, cfg.tiling_glb_bytes)
        return (
            cost.cycles,
            cost.executed_macs,
            cost.dense_macs,
            cost.utilization,
            tiling.dram_read_words,
            tiling.dram_write_words,
        )

    def _fc_costs(self, workload: FcLayerWorkload, cfg: DuetConfig):
        """FC layers are weight-row gated like RNN gates (Section VI)."""
        spec = workload.spec
        executor, _ = self._units(cfg)
        if cfg.enable_output_switching:
            sensitive = workload.sensitive_count
        else:
            sensitive = spec.out_features
        nonzeros = None
        if cfg.enable_input_switching and cfg.enable_output_switching:
            nonzeros = int(workload.imap.sum())
        cost = executor.fc_layer(spec, sensitive, input_nonzeros=nonzeros)
        # only the sensitive rows' weights stream from DRAM
        read_words = spec.in_features + cost.weight_words
        write_words = spec.out_features
        capacity = cost.compute_cycles * cfg.num_pes
        util = cost.executed_macs / capacity if capacity else 1.0
        return (
            cost.compute_cycles,
            cost.executed_macs,
            cost.dense_macs,
            util,
            read_words,
            write_words,
        )

    def _layer(self, workload, upcoming, cfg, dram):
        spec = workload.spec
        speculation_on = cfg.enable_output_switching
        if isinstance(workload, FcLayerWorkload):
            costs = self._fc_costs(workload, cfg)
        else:
            costs = self._conv_costs(workload, cfg)
        exec_cycles, executed, dense, utilization, read_words, write_words = costs

        # Speculation task overlapped with this layer: switching maps for
        # the next layer (paper Fig. 7); nothing to speculate after the
        # last layer.
        spec_cycles = 0
        spec_energy = (0.0, 0.0)
        if speculation_on and upcoming is not None:
            _, speculator = self._units(cfg)
            if isinstance(upcoming, FcLayerWorkload):
                spec_cost = speculator.fc_layer(upcoming.spec, self.reduction)
            else:
                spec_cost = speculator.cnn_layer(
                    upcoming.spec,
                    self.reduction,
                    with_reorder=cfg.enable_adaptive_mapping,
                )
            spec_cycles = spec_cost.cycles
            spec_energy = spec_cost.energy(self.energy_model)

        dram_words = read_words + write_words
        memory_cycles = dram.read(read_words * BYTES_PER_ELEMENT) + dram.write(
            write_words * BYTES_PER_ELEMENT
        )
        glb_words = dram_words + (
            spec.output_elements // 8 if speculation_on else 0
        )  # switching-map bits

        if cfg.enable_pipeline:
            compute_cycles = max(exec_cycles, spec_cycles)
            exposed = max(0, spec_cycles - exec_cycles)
        else:
            compute_cycles = exec_cycles + spec_cycles
            exposed = spec_cycles
        return self._layer_report(
            spec.name,
            executor_cycles=exec_cycles,
            speculator_cycles=spec_cycles,
            exposed_speculation_cycles=exposed,
            memory_cycles=memory_cycles,
            compute_cycles=compute_cycles,
            total_cycles=max(compute_cycles, memory_cycles),
            executed_macs=executed,
            dense_macs=dense,
            utilization=utilization,
            speculator_energy=spec_energy,
            glb_words=glb_words,
            dram_words=dram_words,
        )


class RnnPipeline(_Pipeline):
    """Gate-level pipelined RNN execution (paper Section IV-B).

    Weight matrices of paper-scale RNN layers exceed the GLB, so every
    gate's (sensitive rows of the) weight matrix streams from DRAM at
    every time step; fetch overlaps compute via double buffering.  Under
    a reliability context, faults target the per-(step, gate)
    sensitive-row counts the weight fetch is gated by.
    """

    def _guard(self, ctx, index, workload, cfg):
        return ctx.process_rnn_workload(index, workload, cfg)

    def _gate_grid(self, spec, counts, resident: bool, cfg: DuetConfig, dram: Dram):
        """The whole (time step, gate) grid in array arithmetic.

        Returns int64 ``(seq_len, num_gates)`` arrays of executor cycles,
        executed MACs, DRAM-fetched weight words and fetch cycles.  Every
        quantity is an integer, so the grid reproduces
        :meth:`_gate_loop` bit for bit; :meth:`Dram.read_bulk` resolves a
        flaky channel's retries from the same fault-stream draws the
        per-transfer reads consume.
        """
        executor, _ = self._units(cfg)
        row_len = spec.input_size + spec.hidden_size
        executed = counts * row_len
        fetch_words = executed.copy()
        if resident:
            fetch_words[1:, :] = 0
        fetch_cycles = dram.read_bulk(fetch_words * BYTES_PER_ELEMENT)
        compute = executor.gemv_cycles(counts, row_len)
        return compute, executed, fetch_words, fetch_cycles

    def _gate_loop(self, spec, counts, resident: bool, cfg: DuetConfig, dram: Dram):
        """Per-gate oracle of :meth:`_gate_grid`: one executor gate and one
        ``dram.read`` per (step, gate), time-step major."""
        executor, _ = self._units(cfg)
        grid = np.zeros((4,) + counts.shape, dtype=np.int64)
        for t, g in np.ndindex(counts.shape):
            gate = executor.rnn_gate(spec, int(counts[t, g]))
            # only sensitive rows come from DRAM (once per layer if the
            # GLB could hold them, which paper-scale layers never satisfy)
            fetch = 0 if resident and t > 0 else gate.weight_words
            grid[:, t, g] = (
                gate.compute_cycles,
                gate.executed_macs,
                fetch,
                dram.read(fetch * BYTES_PER_ELEMENT),
            )
        return tuple(grid)

    def _layer(self, workload, upcoming, cfg, dram):
        spec = workload.spec
        switching = cfg.enable_output_switching
        row_len = spec.input_size + spec.hidden_size
        resident = (
            spec.hidden_size * row_len * BYTES_PER_ELEMENT * spec.num_gates
            <= cfg.glb_bytes
        )
        if switching:
            counts = workload.sensitive_counts.astype(np.int64)
        else:
            counts = np.full(
                (spec.seq_len, spec.num_gates), spec.hidden_size, dtype=np.int64
            )
        gates = self._gate_grid if cfg.fast_path else self._gate_loop
        compute, executed, fetch_words, fetch_cycles = gates(
            spec, counts, resident, cfg, dram
        )
        dram_words = int(fetch_words.sum())
        executed_macs = int(executed.sum())

        spec_cycles = 0
        exposed = 0
        spec_compute_e = 0.0
        spec_buffer_e = 0.0
        compute_cycles = compute.copy()
        if switching:
            _, speculator = self._units(cfg)
            gate_spec = speculator.rnn_gate(spec, self.reduction)
            spec_cycles = counts.size * gate_spec.cycles
            # speculation for gate g+1 hides behind gate g: only the
            # input gate's speculation is exposed each step
            exposed = spec.seq_len * gate_spec.cycles
            compute_cycles[:, 0] += gate_spec.cycles
            compute_e, buffer_e = gate_spec.energy(self.energy_model)
            # one addition per (step, gate): a single multiply rounds
            # differently and would move every committed energy figure
            for _ in range(counts.size):
                spec_compute_e += compute_e
                spec_buffer_e += buffer_e

        return self._layer_report(
            spec.name,
            executor_cycles=int(compute.sum()),
            speculator_cycles=spec_cycles,
            exposed_speculation_cycles=exposed,
            memory_cycles=int(fetch_cycles.sum()),
            compute_cycles=int(compute_cycles.sum()),
            total_cycles=int(np.maximum(compute_cycles, fetch_cycles).sum()),
            executed_macs=executed_macs,
            dense_macs=counts.size * spec.hidden_size * row_len,
            utilization=0.0,
            speculator_energy=(spec_compute_e, spec_buffer_e),
            glb_words=dram_words + executed_macs // max(1, cfg.executor_cols),
            dram_words=dram_words,
        )
