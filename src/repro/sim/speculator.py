"""Speculator cycle and energy model (paper Section III-B).

The Speculator is a four-stage unit: 16b->4b Quantizer, ternary-projection
Alignment Units + carry-save adder trees, an INT4 systolic array, and the
Multi-Function Unit, with an optional Reorder Unit pass for CNN adaptive
mapping and a Dequantizer on the RNN path.  The stages pipeline over
tiles, so a layer's speculation latency is dominated by its slowest stage
plus fill.

The reduced dimension ``k`` of each speculated layer comes from the
algorithm side (reduction ratio x full input dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.layer_spec import ConvSpec, RNNSpec
from repro.sim.config import DuetConfig
from repro.sim.energy import EnergyModel

__all__ = ["SpeculatorModel", "SpeculationCost"]

#: fraction of nonzero entries in the ternary projection (Achlioptas 1/3).
_PROJECTION_DENSITY = 1.0 / 3.0


@dataclass
class SpeculationCost:
    """Cycle and energy account of one speculation task.

    Attributes:
        cycles: pipelined latency of the task.
        stage_cycles: per-stage totals ``{quantize, project, systolic, mfu,
            reorder}`` (their max, plus fill, gives ``cycles``).
        int4_macs: systolic-array INT4 MAC count.
        additions: adder-tree additions.
        quantize_ops: 16b->4b conversions (plus dequantizer ops on RNNs).
        mfu_ops: nonlinearities evaluated.
        reorder_bit_adds: 1-bit additions in the Reorder Unit.
        qdr_weight_reads: QDR weight-buffer reads (words).
        buffer_accesses: activation/QDR-input buffer touches (words).
    """

    cycles: int
    stage_cycles: dict[str, int]
    int4_macs: int
    additions: int
    quantize_ops: int
    mfu_ops: int
    reorder_bit_adds: int
    qdr_weight_reads: int
    buffer_accesses: int

    def energy(self, model: EnergyModel) -> tuple[float, float]:
        """(compute_pJ, buffer_pJ) under an :class:`EnergyModel`.

        Buffer accesses are charged at quarter width: the QDR weight and
        input buffers hold INT4 data, so each access moves 4 bits against
        the energy model's 16-bit reference word.
        """
        compute = (
            self.int4_macs * model.mac_int4
            + self.additions * model.add_int16
            + self.quantize_ops * model.quantize_op
            + self.mfu_ops * model.mfu_op
            + self.reorder_bit_adds * model.add_int1
        )
        int4_width_ratio = 4.0 / 16.0
        buffers = (
            (self.qdr_weight_reads + self.buffer_accesses)
            * model.local_access
            * int4_width_ratio
        )
        return compute, buffers


class SpeculatorModel:
    """Throughput model of the Speculator for CNN layers and RNN gates."""

    def __init__(self, config: DuetConfig | None = None):
        self.config = config if config is not None else DuetConfig()
        # the cost methods are pure in (spec, reduction, flags) for a
        # fixed config, and layer specs are frozen dataclasses, so repeated
        # speculation of the same layer (every image, every time step)
        # reuses the finished SpeculationCost.  Shared cost objects must
        # be treated as immutable by callers.
        self._memo: dict[tuple, SpeculationCost] = {}

    def _cost(
        self,
        key: tuple,
        *,
        projected: int,
        quantize_ops: int,
        additions: int,
        int4_macs: int,
        mfu_ops: int,
        reorder_bit_adds: int,
        qdr_weight_reads: int,
        buffer_accesses: int,
    ) -> SpeculationCost:
        """The memoized :class:`SpeculationCost` of one task from its op counts.

        ``projected`` reduced-dimension elements pass the adder trees.  The
        five stages pipeline over tiles, so the task takes its slowest
        stage plus the systolic array's ``rows + cols`` fill.
        """
        cost = self._memo.get(key)
        if cost is not None:
            return cost
        cfg = self.config
        stage = {
            "quantize": math.ceil(quantize_ops / cfg.quantizer_throughput),
            "project": math.ceil(projected / cfg.adder_tree_lanes),
            "systolic": math.ceil(int4_macs / cfg.speculator_macs_per_cycle),
            "mfu": math.ceil(mfu_ops / cfg.mfu_throughput),
            "reorder": math.ceil(reorder_bit_adds / cfg.reorder_unit_adders),
        }
        cost = self._memo[key] = SpeculationCost(
            cycles=max(stage.values()) + cfg.speculator_rows + cfg.speculator_cols,
            stage_cycles=stage,
            int4_macs=int4_macs,
            additions=additions,
            quantize_ops=quantize_ops,
            mfu_ops=mfu_ops,
            reorder_bit_adds=reorder_bit_adds,
            qdr_weight_reads=qdr_weight_reads,
            buffer_accesses=buffer_accesses,
        )
        return cost

    def cnn_layer(
        self, spec: ConvSpec, reduction: float, with_reorder: bool
    ) -> SpeculationCost:
        """Speculation cost for one CONV layer (per image).

        Args:
            spec: the layer being *speculated* (layer L+1 in the pipeline).
            reduction: reduced-dimension ratio ``k / (C_in * k_h * k_w)``.
            with_reorder: include the adaptive-mapping Reorder Unit pass.
        """
        k = max(1, math.ceil(reduction * spec.receptive_field))
        positions = spec.out_h * spec.out_w
        return self._cost(
            ("cnn", spec, reduction, with_reorder),
            projected=positions * k,
            quantize_ops=spec.input_elements,
            additions=int(positions * k * spec.receptive_field * _PROJECTION_DENSITY),
            int4_macs=positions * k * spec.out_channels,
            mfu_ops=spec.output_elements,
            reorder_bit_adds=spec.output_elements if with_reorder else 0,
            qdr_weight_reads=k * spec.out_channels,
            buffer_accesses=2 * positions * k,  # QDR input write + read
        )

    def fc_layer(self, spec, reduction: float) -> SpeculationCost:
        """Speculation cost for one FC layer (one input vector).

        Single input stream, no dequantizer (the CNN FC path zero-fills
        insensitive outputs) and no Reorder Unit (row mapping has no
        channel imbalance).
        """
        k = max(1, math.ceil(reduction * spec.in_features))
        n = spec.out_features
        return self._cost(
            ("fc", spec, reduction),
            projected=k,
            quantize_ops=spec.in_features,
            additions=int(k * spec.in_features * _PROJECTION_DENSITY),
            int4_macs=n * k,
            mfu_ops=n,
            reorder_bit_adds=0,
            qdr_weight_reads=n * k,
            buffer_accesses=2 * k,
        )

    def rnn_gate(self, spec: RNNSpec, reduction: float) -> SpeculationCost:
        """Speculation cost for one gate of one time step.

        Includes the RNN-only dequantizer work: approximate results for
        insensitive neurons are converted back to 16-bit and stored to the
        GLB (paper Section III-B, Step 4).  The RNN dataflow has no
        imbalance, so the Reorder Unit is bypassed.
        """
        kx = max(1, math.ceil(reduction * spec.input_size))
        kh = max(1, math.ceil(reduction * spec.hidden_size))
        h = spec.hidden_size
        return self._cost(
            ("rnn", spec, reduction),
            projected=kx + kh,
            # input + hidden quantization, plus the dequantizer
            quantize_ops=spec.input_size + spec.hidden_size + h,
            additions=int(
                (kx * spec.input_size + kh * spec.hidden_size) * _PROJECTION_DENSITY
            ),
            int4_macs=h * (kx + kh),
            mfu_ops=h,
            reorder_bit_adds=0,
            qdr_weight_reads=h * (kx + kh),
            buffer_accesses=2 * (kx + kh) + h,  # QDR input r/w + approx store
        )
