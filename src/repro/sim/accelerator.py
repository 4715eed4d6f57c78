"""DUET top level: run a model spec end to end on the simulated accelerator."""

from __future__ import annotations

from repro.models.layer_spec import ModelSpec
from repro.sim.area import AreaBreakdown, AreaModel
from repro.sim.config import DuetConfig, stage_config
from repro.sim.energy import EnergyModel
from repro.sim.pipeline import CnnPipeline, RnnPipeline
from repro.sim.report import ModelReport
from repro.workloads.sparsity import (
    CnnLayerWorkload,
    RnnLayerWorkload,
    SparsityModel,
    cnn_workloads,
    rnn_workloads,
)

__all__ = ["DuetAccelerator"]


class DuetAccelerator:
    """The DUET accelerator: config + energy model + dataflow pipelines.

    Typical use::

        acc = DuetAccelerator()                       # full DUET
        base = DuetAccelerator(stage="BASE")          # single-module
        report = acc.run(get_model_spec("alexnet"))
        print(report.latency_ms, base.run(...).speedup_over(report))

    Args:
        config: explicit hardware/feature configuration; mutually exclusive
            with ``stage``.
        stage: one of ``BASE/OS/BOS/IOS/DUET`` (Fig. 12a evaluation
            stages); builds the matching config from defaults.
        energy_model: per-op energy constants.
        reduction: approximate-module dimension-reduction ratio ``k / d``
            (default 0.125 -- the paper's QDR modules carry roughly an
            order of magnitude fewer parameters than the accurate layers).
        sparsity: workload sparsity statistics (used when ``run`` is given
            a bare model spec rather than explicit workloads).
        reliability: optional :class:`repro.reliability.context.ReliabilityContext`
            threaded through to the pipelines -- faults, guards, and
            graceful degradation for the run.
    """

    def __init__(
        self,
        config: DuetConfig | None = None,
        stage: str | None = None,
        energy_model: EnergyModel | None = None,
        reduction: float = 0.125,
        sparsity: SparsityModel | None = None,
        reliability=None,
    ):
        if config is not None and stage is not None:
            raise ValueError("pass either config or stage, not both")
        if stage is not None:
            config = stage_config(stage)
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.reduction = reduction
        self.sparsity = sparsity if sparsity is not None else SparsityModel()
        self.reliability = reliability

    def run(
        self,
        model: ModelSpec,
        workloads: list[CnnLayerWorkload] | list[RnnLayerWorkload] | None = None,
    ) -> ModelReport:
        """Simulate a model; workloads are generated from ``sparsity`` when
        not supplied explicitly.

        Returns:
            A :class:`~repro.sim.report.ModelReport`.
        """
        if model.domain == "cnn":
            if workloads is None:
                workloads = cnn_workloads(model, self.sparsity)
            pipeline = CnnPipeline(
                self.config,
                self.energy_model,
                self.reduction,
                reliability=self.reliability,
            )
            return pipeline.run(model, workloads)
        if workloads is None:
            workloads = rnn_workloads(model, self.sparsity)
        pipeline = RnnPipeline(
            self.config,
            self.energy_model,
            self.reduction,
            reliability=self.reliability,
        )
        return pipeline.run(model, workloads)

    def run_batch(
        self, model: ModelSpec, batch: int, base_seed: int = 0
    ) -> list[ModelReport]:
        """Simulate ``batch`` independent workload samples of ``model``.

        Each sample redraws the sparsity maps with seed ``base_seed + i``
        (the accelerator processes "batches of ifmap" sequentially, paper
        Section IV-A); per-image variation gives confidence intervals for
        the latency/energy estimates.

        A thin wrapper over the serving tier's
        :class:`~repro.sim.batching.BatchExecutor`, which forwards
        *every* accelerator field -- including ``reliability``, which a
        previous hand-rolled reconstruction silently dropped, detaching
        active fault campaigns and guards from batched runs.  An attached
        :class:`~repro.reliability.context.ReliabilityContext` now threads through
        the whole batch in sample order (one machine, one campaign).

        Returns:
            One :class:`ModelReport` per sample.
        """
        from repro.sim.batching import BatchExecutor  # avoid import cycle

        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        executor = BatchExecutor(
            config=self.config,
            energy_model=self.energy_model,
            reduction=self.reduction,
            sparsity=self.sparsity,
            reliability=self.reliability,
        )
        seeds = [base_seed + i for i in range(batch)]
        return executor.execute(model, seeds).reports

    def area(self) -> AreaBreakdown:
        """Structural area breakdown of this configuration (Table I)."""
        return AreaModel(self.config).breakdown()
