"""Batch execution on simulated accelerators, plus the worker pool.

The :class:`BatchExecutor` is the bridge between the serving tier and the
simulator: it turns "serve this same-model batch at this ladder rung"
into per-sample :class:`~repro.sim.report.ModelReport` runs (fast path by
default) and a **batch service time**:

    ``service = dispatch_overhead + max_i(memory_cycles_i) + sum_i(compute_cycles_i)``

The model follows the accelerator's batching semantics (paper Section
IV-A): samples of a batch stream through the chip *sequentially* -- their
critical-path compute cycles add -- while the batch pays the off-chip
staging cost once, because weights dominate DRAM traffic and are reused
across the whole batch (the next sample's ifmap streams in behind the
current sample's compute).  A single-request dispatch enjoys no such
reuse: it pays its full staging cost plus the fixed dispatch overhead,
which is why dynamic batching wins throughput -- dramatically so for the
memory-bound RNNs of Fig. 12(d).

Per-sample reports are memoized on ``(model, stage, workload_seed)``:
the simulator is deterministic, so a seed that repeats across the
campaign costs one simulation.  Memoization is disabled when a
:class:`~repro.reliability.ReliabilityContext` is attached -- fault
campaigns are stateful (injection budgets, monotone degradation), so
every sample must really run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from repro.models.layer_spec import ModelSpec
from repro.models.registry import get_model_spec
from repro.sim.config import DuetConfig, stage_config
from repro.validation import check_range
from repro.workloads.sparsity import SparsityModel

__all__ = ["BatchExecutor", "BatchResult", "ServiceModel", "WorkerPool"]


@dataclass(frozen=True)
class ServiceModel:
    """Batch service-time model (see the module docstring).

    Attributes:
        dispatch_overhead_cycles: fixed per-dispatch cost (scheduling,
            descriptor setup, weight-base reprogramming) -- 10 us at the
            default 1 GHz clock.
    """

    dispatch_overhead_cycles: int = 10_000

    def __post_init__(self):
        check_range(self, "dispatch_overhead_cycles", ge=0)

    def batch_service_cycles(self, reports) -> int:
        """Service cycles for one dispatched batch of per-sample reports."""
        if not reports:
            raise ValueError("cannot price an empty batch")
        return (
            self.dispatch_overhead_cycles
            + max(r.memory_cycles for r in reports)
            + sum(r.compute_cycles for r in reports)
        )


@dataclass
class BatchResult:
    """One executed batch: per-sample reports + the batch service time."""

    reports: list
    service_cycles: int


class BatchExecutor:
    """Executes same-model batches on one simulated accelerator design.

    Accepts the same construction surface as
    :class:`~repro.sim.accelerator.DuetAccelerator` and forwards *every*
    field -- including the reliability context -- when building the
    per-sample accelerators (``DuetAccelerator.run_batch`` routes through
    here, which is what fixed the dropped-``reliability`` batching bug).

    Args:
        config: hardware/feature configuration (default ``DuetConfig()``).
        energy_model: per-op energy constants.
        reduction: approximate-module dimension reduction.
        sparsity: workload sparsity template; each sample re-seeds it
            with its ``workload_seed``.
        reliability: optional reliability context, threaded through every
            sample *in order* -- a batch is one machine's run, so a fault
            campaign's state (and its monotone degradation) accumulates
            across the batch.
        service: the batch service-time model.
    """

    def __init__(
        self,
        config: DuetConfig | None = None,
        energy_model=None,
        reduction: float = 0.125,
        sparsity: SparsityModel | None = None,
        reliability=None,
        service: ServiceModel | None = None,
    ):
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model
        self.reduction = reduction
        self.sparsity = sparsity if sparsity is not None else SparsityModel()
        self.reliability = reliability
        self.service = service if service is not None else ServiceModel()
        self._cache: dict[tuple[str, str | None, int], object] = {}
        self._specs: dict[str, ModelSpec] = {}

    def _resolve(self, model: str | ModelSpec) -> ModelSpec:
        if isinstance(model, ModelSpec):
            return model
        if model not in self._specs:
            self._specs[model] = get_model_spec(model)
        return self._specs[model]

    def sample_report(
        self, model: str | ModelSpec, workload_seed: int, stage: str | None = None
    ):
        """Simulate (or recall) one sample of ``model`` at ``stage``.

        Args:
            model: registered model name or an explicit spec.
            workload_seed: the sample's sparsity seed.
            stage: degradation-ladder rung to serve at; None uses the
                executor's configuration unchanged.
        """
        from repro.sim.accelerator import DuetAccelerator  # avoid import cycle

        spec = self._resolve(model)
        key = (spec.name, stage, workload_seed)
        if self.reliability is None and key in self._cache:
            return self._cache[key]
        cfg = self.config if stage is None else stage_config(stage, base=self.config)
        accelerator = DuetAccelerator(
            config=cfg,
            energy_model=self.energy_model,
            reduction=self.reduction,
            sparsity=replace(self.sparsity, seed=workload_seed),
            reliability=self.reliability,
        )
        report = accelerator.run(spec)
        if self.reliability is None:
            self._cache[key] = report
        return report

    def execute(
        self,
        model: str | ModelSpec,
        workload_seeds: list[int],
        stage: str | None = None,
    ) -> BatchResult:
        """Run one same-model batch; returns reports + service cycles."""
        if not workload_seeds:
            raise ValueError("a batch needs at least one request")
        reports = [self.sample_report(model, s, stage) for s in workload_seeds]
        return BatchResult(
            reports=reports,
            service_cycles=self.service.batch_service_cycles(reports),
        )


@dataclass
class WorkerPool:
    """N identical simulated accelerator instances behind one queue.

    The pool only tracks which workers are idle; the event loop owns
    completion times.  ``acquire`` hands out the smallest idle id so runs
    are deterministic.

    Attributes:
        size: number of workers.
    """

    size: int
    _idle: list[int] = field(default_factory=list)

    def __post_init__(self):
        check_range(self, "size", ge=1)
        self._idle = list(range(self.size))
        heapq.heapify(self._idle)

    @property
    def idle(self) -> int:
        """Number of idle workers."""
        return len(self._idle)

    def acquire(self) -> int:
        """Take the smallest idle worker id."""
        if not self._idle:
            raise RuntimeError("no idle worker to acquire")
        return heapq.heappop(self._idle)

    def release(self, worker: int) -> None:
        """Return a worker to the idle set."""
        if not 0 <= worker < self.size:
            raise ValueError(f"worker id {worker} outside pool of {self.size}")
        if worker in self._idle:
            raise ValueError(f"worker {worker} is already idle")
        heapq.heappush(self._idle, worker)
