"""Result structures produced by the accelerator simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.config import DuetConfig
from repro.sim.energy import EnergyBreakdown

if TYPE_CHECKING:  # avoid a runtime cycle with repro.reliability
    from repro.reliability.report import ReliabilityReport

__all__ = ["LayerReport", "ModelReport"]


@dataclass
class LayerReport:
    """Per-layer simulation outcome.

    Attributes:
        name: layer name from the model spec.
        executor_cycles: Executor busy cycles.
        speculator_cycles: Speculator busy cycles for this layer's
            speculation task (for CNNs this is the speculation of the
            *next* layer performed while this layer executes).
        exposed_speculation_cycles: speculation cycles that could not be
            hidden behind execution and extend the critical path.
        memory_cycles: DRAM-interface cycles attributable to the layer.
        compute_cycles: critical-path compute cycles (executor + exposed
            speculation).
        total_cycles: layer latency on the critical path.
        executed_macs / dense_macs: Executor INT16 MAC counts.
        utilization: Executor MAC utilisation (CNNs; 0 when undefined).
        energy: component-level energy breakdown.
        dram_bytes: off-chip traffic for this layer.
    """

    name: str
    executor_cycles: int
    speculator_cycles: int
    exposed_speculation_cycles: int
    memory_cycles: int
    compute_cycles: int
    total_cycles: int
    executed_macs: int
    dense_macs: int
    utilization: float
    energy: EnergyBreakdown
    dram_bytes: int


@dataclass
class ModelReport:
    """Whole-model simulation outcome.

    Attributes:
        model_name: the simulated model.
        config: the hardware/feature configuration used.
        layers: per-layer reports in execution order.
        reliability: the run's fault/guard/degradation account when the
            pipeline ran under a :class:`repro.reliability.context.ReliabilityContext`
            (None for ordinary runs).
    """

    model_name: str
    config: DuetConfig
    layers: list[LayerReport] = field(default_factory=list)
    reliability: "ReliabilityReport | None" = None

    @property
    def total_cycles(self) -> int:
        """End-to-end latency in cycles."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds at the configured clock."""
        return self.config.cycles_to_ms(self.total_cycles)

    @property
    def executor_cycles(self) -> int:
        """Total Executor busy cycles."""
        return sum(layer.executor_cycles for layer in self.layers)

    @property
    def speculator_cycles(self) -> int:
        """Total Speculator busy cycles."""
        return sum(layer.speculator_cycles for layer in self.layers)

    @property
    def memory_cycles(self) -> int:
        """Total DRAM-interface cycles."""
        return sum(layer.memory_cycles for layer in self.layers)

    @property
    def compute_cycles(self) -> int:
        """Total critical-path compute cycles."""
        return sum(layer.compute_cycles for layer in self.layers)

    @property
    def energy(self) -> EnergyBreakdown:
        """Whole-model energy breakdown."""
        total = EnergyBreakdown()
        for layer in self.layers:
            total = total.merge(layer.energy)
        return total

    @property
    def executed_macs(self) -> int:
        """Total Executor MACs performed."""
        return sum(layer.executed_macs for layer in self.layers)

    @property
    def dense_macs(self) -> int:
        """Total MACs a no-skipping baseline performs."""
        return sum(layer.dense_macs for layer in self.layers)

    @property
    def mean_utilization(self) -> float:
        """Executor-cycle-weighted mean MAC utilisation."""
        weighted = sum(
            layer.utilization * layer.executor_cycles for layer in self.layers
        )
        cycles = self.executor_cycles
        return weighted / cycles if cycles else 0.0

    def speedup_over(self, baseline: "ModelReport") -> float:
        """Latency ratio ``baseline / self`` (higher = this one is faster)."""
        if self.total_cycles == 0:
            raise ZeroDivisionError("this report has zero latency")
        return baseline.total_cycles / self.total_cycles

    def energy_saving_over(self, baseline: "ModelReport") -> float:
        """Total-energy ratio ``baseline / self`` (higher = this one wins)."""
        if self.energy.total == 0:
            raise ZeroDivisionError("this report has zero energy")
        return baseline.energy.total / self.energy.total

    def edp(self) -> float:
        """Energy-delay product (pJ x cycles; comparisons use ratios)."""
        return self.energy.total * self.total_cycles

    def layer(self, name: str) -> LayerReport:
        """Look up a layer report by name.

        Raises:
            KeyError: if no layer has that name.
        """
        for report in self.layers:
            if report.name == name:
                return report
        raise KeyError(f"report for {self.model_name!r} has no layer {name!r}")

    def prefix(self, layer_name: str) -> "ModelReport":
        """The report restricted to layers up to and including
        ``layer_name``.

        Every aggregate on :class:`ModelReport` is a per-layer sum, so a
        prefix view prices "the network stopped after this layer" exactly
        -- the exit-aware cost model uses it to attribute backbone cycles
        and energy to early-exit attach points.

        Raises:
            KeyError: if no layer has that name.
        """
        for index, report in enumerate(self.layers):
            if report.name == layer_name:
                return ModelReport(
                    model_name=self.model_name,
                    config=self.config,
                    layers=self.layers[: index + 1],
                    reliability=self.reliability,
                )
        raise KeyError(
            f"report for {self.model_name!r} has no layer {layer_name!r}"
        )
