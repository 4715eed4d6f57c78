"""Energy model: per-operation and per-access costs.

The paper synthesises RTL at 45 nm-class technology and uses CACTI plus
Micron power calculators for SRAM/DRAM (Section V-B).  Those tools are
unavailable, so we use the widely published relative energy hierarchy the
paper's analysis itself leans on ("buffer accessing is the major source of
on-chip energy", DRAM two orders of magnitude above a MAC):

=======================  ==========  ===========================
operation                cost (pJ)   rationale
===========================  ==========  ===========================
INT16 MAC                1.0         normalisation unit
INT4 MAC                 0.08        quadratic-ish multiplier scaling
INT16 addition           0.1         adder tree element
local (PE) buffer access 1.0         Eyeriss RF ~= 1x MAC
GLB access               6.0         Eyeriss global buffer ~= 6x
DRAM access              200.0       ~200x MAC per 16-bit word
===========================  ==========  ===========================

Accesses are charged per 16-bit word.  Absolute joules are not meaningful
-- every benchmark reports ratios, which is also how the paper presents
energy (normalised bars).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.validation import check_range

__all__ = ["EnergyModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy constants in picojoules.

    Attributes mirror the table in the module docstring; override any of
    them to study sensitivity to the technology assumptions.
    """

    mac_int16: float = 1.0
    mac_int4: float = 0.08
    add_int16: float = 0.1
    add_int1: float = 0.01
    local_access: float = 1.0
    glb_access: float = 6.0
    dram_access: float = 200.0
    noc_hop: float = 2.0
    mfu_op: float = 0.5
    quantize_op: float = 0.05

    def __post_init__(self):
        check_range(self, *self.__dataclass_fields__, ge=0)


@dataclass
class EnergyBreakdown:
    """Energy totals by component, in pJ.

    Attributes:
        executor_compute: INT16 MAC energy in the PE array.
        executor_local: PE local-buffer access energy.
        speculator_compute: INT4 MACs + projection additions + quantizer +
            MFU + reorder-unit energy.
        speculator_buffers: Speculator-side buffer access energy (QDR
            weights, activation/QDR-input buffers).
        glb: global buffer access energy (both clients).
        noc: X/Y multicast bus energy (Eyeriss-class NoC is ~2x a MAC per
            hop; ID-mismatched receivers are deactivated and free).
        dram: off-chip access energy.
    """

    executor_compute: float = 0.0
    executor_local: float = 0.0
    speculator_compute: float = 0.0
    speculator_buffers: float = 0.0
    glb: float = 0.0
    noc: float = 0.0
    dram: float = 0.0

    @property
    def on_chip(self) -> float:
        """Total excluding DRAM (the Fig. 12f view)."""
        return (
            self.executor_compute
            + self.executor_local
            + self.speculator_compute
            + self.speculator_buffers
            + self.glb
            + self.noc
        )

    @property
    def total(self) -> float:
        """Total including DRAM (the Fig. 12e view)."""
        return self.on_chip + self.dram

    @property
    def speculator_total(self) -> float:
        """All Speculator-attributed energy."""
        return self.speculator_compute + self.speculator_buffers

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Element-wise sum (for layer/network roll-ups)."""
        return EnergyBreakdown(
            executor_compute=self.executor_compute + other.executor_compute,
            executor_local=self.executor_local + other.executor_local,
            speculator_compute=self.speculator_compute + other.speculator_compute,
            speculator_buffers=self.speculator_buffers + other.speculator_buffers,
            glb=self.glb + other.glb,
            noc=self.noc + other.noc,
            dram=self.dram + other.dram,
        )

    def as_dict(self) -> dict[str, float]:
        """Component name to pJ mapping (for reports and plots)."""
        return {
            "executor_compute": self.executor_compute,
            "executor_local": self.executor_local,
            "speculator_compute": self.speculator_compute,
            "speculator_buffers": self.speculator_buffers,
            "glb": self.glb,
            "noc": self.noc,
            "dram": self.dram,
        }
