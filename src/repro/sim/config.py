"""Hardware configuration of the DUET accelerator (paper Section III).

The defaults reproduce the paper's design point:

- Executor: 16x16 PE array of 16-bit fixed-point MACs with per-PE local
  buffers and a MAC-instruction LUT.
- Speculator: 16b->4b quantizer, ternary-projection adder trees, a 16x32
  INT4 systolic array (chosen by the Fig. 13a DSE), MFU, Reorder Unit.
- GLB: 1 MB, ~10% of it reserved for Speculator data.
- NoC: Eyeriss-style Y-bus driving 17 X-buses (16 Executor rows + 1 for
  the Speculator) with multicast (row, col) ID matching.
- 1 GHz clock, so reported latencies in ms equal cycles / 1e6.

Feature flags (``enable_*``) select the evaluation stages of Fig. 12(a):
output switching (OS), balanced output switching (BOS = OS + adaptive
mapping), integrated input+output switching (IOS), and full DUET
(IOS + adaptive mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.validation import check_range

__all__ = ["DuetConfig", "stage_config", "STAGES"]


@dataclass(frozen=True)
class DuetConfig:
    """Complete DUET hardware + feature configuration.

    Attributes:
        executor_rows / executor_cols: PE array geometry (16x16 default).
        speculator_rows / speculator_cols: INT4 systolic array geometry.
        glb_bytes: global buffer capacity.
        dram_bandwidth: off-chip bandwidth in bytes/cycle.
        clock_hz: clock frequency (1 GHz default).
        quantizer_throughput: 16b->4b conversions per cycle.
        adder_tree_lanes: parallel projection adder-tree lanes (each retires
            one reduced-dimension output element per cycle).
        mfu_throughput: activations evaluated per cycle in the MFU.
        reorder_unit_adders: 1-bit adder-tree width of the Reorder Unit.
        executor_step_positions: output positions per Executor scheduling
            step (the small output tile of Fig. 7; PE rows synchronise at
            step boundaries).
        reorder_buckets: interval buckets of the Reorder Unit's threshold
            comparison (the hardware does not sort exactly).
        reorder_window_tiles: how many upcoming tiles one reordering
            decision covers -- the Reorder Unit examines "the total
            workloads ... within several tiles" (Section IV-A), so the
            channel grouping is fixed across the window and within-window
            tile variance remains unbalanced.
        fast_path: use the vectorized/memoized simulator kernels (batched
            tile aggregation, analytic uniform-layer shortcuts, the
            batched RNN gate grid).  The fast path is *exact*: it
            produces bit-identical :class:`~repro.sim.report.ModelReport`
            cycle/energy counters to the reference implementation
            (``fast_path=False``), which is kept as the oracle the
            equivalence suite (``tests/sim/test_fast_path.py``) and the
            ``repro bench`` harness check against.  See
            ``docs/performance.md``.
        enable_output_switching: skip Executor MACs using the OMap.
        enable_input_switching: additionally skip zero-input MACs (IMap).
        enable_adaptive_mapping: balance PE rows via the Reorder Unit.
        enable_pipeline: overlap Speculator with Executor (decoupled
            design); disabling serialises speculation before execution.
    """

    executor_rows: int = 16
    executor_cols: int = 16
    speculator_rows: int = 16
    speculator_cols: int = 32
    glb_bytes: int = 1 << 20
    dram_bandwidth: int = 32
    clock_hz: float = 1e9
    quantizer_throughput: int = 32
    adder_tree_lanes: int = 16
    mfu_throughput: int = 16
    reorder_unit_adders: int = 64
    executor_step_positions: int = 8
    reorder_buckets: int = 16
    reorder_window_tiles: int = 2
    enable_output_switching: bool = True
    enable_input_switching: bool = True
    enable_adaptive_mapping: bool = True
    enable_pipeline: bool = True
    fast_path: bool = True

    def __post_init__(self):
        check_range(
            self,
            "executor_rows",
            "executor_cols",
            "speculator_rows",
            "speculator_cols",
            "glb_bytes",
            "dram_bandwidth",
            "clock_hz",
            "quantizer_throughput",
            "adder_tree_lanes",
            "mfu_throughput",
            "reorder_unit_adders",
            "executor_step_positions",
            "reorder_buckets",
            "reorder_window_tiles",
            gt=0,
        )
        # the PE/systolic arrays, the NoC multicast (row, col) ID scheme and
        # the power-of-two channel-tile sweep of repro.sim.tiling all assume
        # power-of-two array geometry
        for name in (
            "executor_rows",
            "executor_cols",
            "speculator_rows",
            "speculator_cols",
        ):
            value = getattr(self, name)
            if value & (value - 1):
                raise ValueError(
                    f"DuetConfig.{name} must be a power of two, got {value}: "
                    "the PE/systolic arrays, NoC multicast IDs and channel "
                    "tiling assume power-of-two geometry"
                )

    @property
    def num_pes(self) -> int:
        """Total Executor PEs."""
        return self.executor_rows * self.executor_cols

    @property
    def tiling_glb_bytes(self) -> int:
        """GLB bytes a CONV layer's loop tiling may use: ~10% of the GLB
        is reserved for Speculator data (QDR weights, switching maps,
        mapping configuration -- paper Section III-A)."""
        return int(self.glb_bytes * 0.9)

    @property
    def speculator_macs_per_cycle(self) -> int:
        """INT4 MAC throughput of the systolic array."""
        return self.speculator_rows * self.speculator_cols

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds at the configured clock."""
        return cycles / self.clock_hz * 1e3

    def scaled_speculator(self, rows: int, cols: int) -> "DuetConfig":
        """A copy with a resized systolic array and proportionally scaled
        quantizer / adder-tree / MFU throughput (the Fig. 13a DSE knob).

        The paper scales "other components in the Speculator accordingly"
        when modifying the systolic array size; we scale supporting
        throughput by the MAC-throughput ratio.
        """
        ratio = (rows * cols) / (self.speculator_rows * self.speculator_cols)
        return replace(
            self,
            speculator_rows=rows,
            speculator_cols=cols,
            quantizer_throughput=max(1, round(self.quantizer_throughput * ratio)),
            adder_tree_lanes=max(1, round(self.adder_tree_lanes * ratio)),
            mfu_throughput=max(1, round(self.mfu_throughput * ratio)),
        )


#: The Fig. 12(a) evaluation stages, in increasing capability order.
STAGES = ("BASE", "OS", "BOS", "IOS", "DUET")


def stage_config(stage: str, base: DuetConfig | None = None) -> DuetConfig:
    """Configuration for one of the paper's evaluation stages.

    - ``BASE``: single-module execution, no skipping (the comparison
      baseline of Fig. 12a).
    - ``OS``: output switching only, naive mapping.
    - ``BOS``: output switching + adaptive mapping ("balanced OS").
    - ``IOS``: integrated input + output switching, naive mapping.
    - ``DUET``: IOS + adaptive mapping (the full design).

    Args:
        stage: one of :data:`STAGES`.
        base: configuration to derive from (defaults to ``DuetConfig()``).
    """
    base = base if base is not None else DuetConfig()
    flags = {
        "BASE": (False, False, False),
        "OS": (True, False, False),
        "BOS": (True, False, True),
        "IOS": (True, True, False),
        "DUET": (True, True, True),
    }
    try:
        out_sw, in_sw, adaptive = flags[stage]
    except KeyError:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}") from None
    return replace(
        base,
        enable_output_switching=out_sw,
        enable_input_switching=in_sw,
        enable_adaptive_mapping=adaptive,
    )
