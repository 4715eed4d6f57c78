"""Multi-chip model sharding: pipeline splits, tensor splits, GLB co-location.

One simulated DUET chip serves one request stream.  Production serving
shards a model across a *shard group* of chips, and the two classic
splits trade compute against communication in opposite directions:

- **Pipeline split** (``kind="pipeline"``): contiguous layer ranges are
  placed on successive chips; a batch streams through the stages and
  boundary activations hop the inter-chip link between them.  Steady
  state is limited by the slowest stage, so the planner balances the
  per-layer static cost (dense MACs) across stages.  Communication is
  one activation tensor per boundary per sample, priced by the NoC's
  shared-link model (:func:`repro.sim.noc.interchip_transfer_cycles`).
- **Tensor split** (``kind="tensor"``): every layer's output channels
  are divided across ``k`` chips, cutting critical-path compute to
  ``~1/k`` -- but the chips sit behind one physical DRAM channel
  (:func:`repro.sim.dram.shared_channel_cycles`), so each chip's weight
  slice streams at a ``1/k`` bandwidth share and memory time does not
  shrink, and every layer pays a ring all-reduce of its outputs on the
  inter-chip link.  Tensor splits help compute-bound CNNs and do little
  for the DRAM-bound RNNs -- exactly the paper's Fig. 12(d) split.

:func:`plan_for` is the placement search: it prices a reference batch
under every split kind (the property-exploration style of
arXiv:2207.12350 -- enumerate configurations, keep the one meeting the
latency property) and returns the cheapest plan.

Chips may also *co-locate* several models (:func:`glb_partition`): the
global buffer is partitioned in proportion to each model's weight
footprint, and a model squeezed below its fair share re-streams the
overflow from DRAM -- its memory cycles inflate by the uncovered
fraction.

Everything here is an analytic layer over the per-sample
:class:`~repro.sim.report.ModelReport` the
:class:`~repro.sim.batching.BatchExecutor` already memoizes, so
sharded pricing inherits the simulator's determinism: the same plan,
model, stage, and workload seeds always price identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.layer_spec import BYTES_PER_ELEMENT, ConvSpec, FCSpec, RNNSpec
from repro.sim.batching import BatchExecutor, BatchResult
from repro.sim.dram import shared_channel_cycles
from repro.sim.noc import interchip_transfer_cycles
from repro.validation import check_range, require_range

__all__ = [
    "SPLIT_KINDS",
    "GlbPartition",
    "ShardPlan",
    "ShardedBatchResult",
    "ShardedExecutor",
    "boundary_elements",
    "glb_partition",
    "partition_layers",
    "plan_for",
]

#: The supported split kinds: single chip, layer-wise, tensor-wise.
SPLIT_KINDS = ("none", "pipeline", "tensor")


@dataclass(frozen=True)
class ShardPlan:
    """How one model is split across a shard group of chips.

    Attributes:
        kind: one of :data:`SPLIT_KINDS`.
        shards: chips in the group (1 for ``"none"``, >= 2 otherwise).
        link_bandwidth: inter-chip link bandwidth in bytes per cycle;
            the default matches the off-chip DRAM interface
            (:attr:`repro.sim.config.DuetConfig.dram_bandwidth`), the
            realistic regime where communication is not free.
    """

    kind: str = "none"
    shards: int = 1
    link_bandwidth: int = 32

    def __post_init__(self):
        if self.kind not in SPLIT_KINDS:
            raise ValueError(
                f"ShardPlan.kind must be one of {SPLIT_KINDS}, got "
                f"{self.kind!r}"
            )
        if self.kind == "none":
            if self.shards != 1:
                raise ValueError(
                    f"ShardPlan(kind='none') is single-chip; got "
                    f"shards={self.shards}"
                )
        elif self.shards < 2:
            raise ValueError(
                f"ShardPlan(kind={self.kind!r}) needs >= 2 shards, got "
                f"{self.shards}"
            )
        check_range(self, "link_bandwidth", ge=1)


#: the plan of a model with none assigned, built once rather than per
#: dispatch (``plan_for`` runs for every priced batch)
_SINGLE_CHIP = ShardPlan()


@dataclass
class ShardedBatchResult(BatchResult):
    """A priced batch plus its per-shard busy cycles.

    Attributes:
        shard_busy_cycles: busy cycles of each chip in the shard group
            during this batch's service window (used for utilization
            accounting; one entry for an unsplit plan).
    """

    shard_busy_cycles: list[int] | None = None


def boundary_elements(spec_layer) -> int:
    """Activation elements crossing a stage boundary after ``spec_layer``.

    CNN/FC layers hand their output feature map to the next stage; an
    RNN layer streams its hidden state, one vector per time step.
    """
    if isinstance(spec_layer, (ConvSpec, FCSpec)):
        return spec_layer.output_elements
    if isinstance(spec_layer, RNNSpec):
        return spec_layer.hidden_size * spec_layer.seq_len
    raise TypeError(
        f"unsupported layer spec {type(spec_layer).__name__} at a shard "
        "boundary"
    )


def partition_layers(costs: list[int], shards: int) -> list[tuple[int, int]]:
    """Split layer indices into ``shards`` contiguous balanced stages.

    A greedy prefix walk: each stage takes layers until it reaches the
    running target (remaining cost / remaining stages), while always
    leaving at least one layer per unfilled stage.  Deterministic, and
    every stage is non-empty.

    Args:
        costs: per-layer static cost (>= 0 each, model order).
        shards: stage count, ``1 <= shards <= len(costs)``.

    Returns:
        Half-open ``(start, end)`` index ranges covering ``costs``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > len(costs):
        raise ValueError(
            f"cannot split {len(costs)} layer(s) into {shards} stages"
        )
    if any(c < 0 for c in costs):
        raise ValueError("layer costs must be non-negative")
    bounds: list[tuple[int, int]] = []
    start = 0
    remaining = sum(costs)
    for stage in range(shards):
        stages_left = shards - stage
        if stages_left == 1:
            end = len(costs)
        else:
            target = remaining / stages_left
            limit = len(costs) - (stages_left - 1)
            end = start + 1
            taken = costs[start]
            while end < limit and taken < target:
                taken += costs[end]
                end += 1
        bounds.append((start, end))
        remaining -= sum(costs[start:end])
        start = end
    return bounds


@dataclass(frozen=True)
class GlbPartition:
    """A static partition of one chip's global buffer among co-located
    models.

    Attributes:
        fractions: model name -> GLB fraction (positive, sums to <= 1).
    """

    fractions: dict

    def __post_init__(self):
        if not self.fractions:
            raise ValueError("GlbPartition needs at least one model")
        for model, fraction in self.fractions.items():
            require_range(
                f"GlbPartition.fractions[{model!r}]", fraction, gt=0, le=1
            )
        if sum(self.fractions.values()) > 1.0 + 1e-9:
            raise ValueError(
                f"GLB fractions sum to {sum(self.fractions.values()):.4f} > 1"
            )

    def memory_inflation(self, model: str) -> float:
        """Memory-cycle multiplier for ``model`` under its partition.

        A model holding fraction ``f`` of the buffer loses ``1 - f`` of
        its working-set residency and re-streams that overflow from
        DRAM: cycles inflate by ``2 - f`` (no penalty at ``f = 1``).
        A model not in the partition runs alone and pays nothing.
        """
        fraction = self.fractions.get(model)
        if fraction is None:
            return 1.0
        return 2.0 - fraction


def glb_partition(models, resolve) -> GlbPartition:
    """Partition one chip's GLB among co-located models.

    Each model's share is proportional to its weight footprint -- the
    quantity that competes for residency -- so a small RNN co-located
    with a large CNN keeps a usable slice rather than an equal split.

    Args:
        models: model names sharing the chip (at least one).
        resolve: ``name -> ModelSpec`` resolver (e.g.
            ``BatchExecutor._resolve``).
    """
    names = list(models)
    if not names:
        raise ValueError("glb_partition needs at least one model")
    footprints = {
        name: resolve(name).total_weight_elements * BYTES_PER_ELEMENT
        for name in names
    }
    total = sum(footprints.values())
    if total <= 0:
        raise ValueError("co-located models have no weights to partition by")
    return GlbPartition(
        fractions={name: footprints[name] / total for name in names}
    )


class ShardedExecutor(BatchExecutor):
    """A :class:`~repro.sim.batching.BatchExecutor` that prices
    batches against per-model shard plans and a GLB co-location map.

    Args:
        plans: model name -> :class:`ShardPlan`; models without an entry
            run single-chip.
        colocated: model names sharing each chip's GLB; with two or more
            entries a :func:`glb_partition` is applied to every priced
            batch.  Empty disables co-location (each model runs alone).
        **kwargs: forwarded to :class:`BatchExecutor` (hardware config,
            sparsity, service model, ...).
    """

    def __init__(self, plans: dict | None = None, colocated=(), **kwargs):
        super().__init__(**kwargs)
        self.plans = dict(plans) if plans else {}
        names = list(colocated)
        self.partition = (
            glb_partition(names, self._resolve) if len(names) > 1 else None
        )

    def plan_for(self, model) -> ShardPlan:
        """The plan this executor applies to ``model``."""
        return self.plans.get(self._resolve(model).name, _SINGLE_CHIP)

    def _inflated(self, model_name: str, memory_cycles: int) -> int:
        if self.partition is None:
            return memory_cycles
        return math.ceil(
            memory_cycles * self.partition.memory_inflation(model_name)
        )

    def execute(self, model, workload_seeds, stage=None) -> ShardedBatchResult:
        """Price one same-model batch under the model's shard plan."""
        if not workload_seeds:
            raise ValueError("a batch needs at least one request")
        spec = self._resolve(model)
        plan = self.plan_for(spec.name)
        reports = [self.sample_report(spec, s, stage) for s in workload_seeds]
        if plan.kind == "pipeline":
            service, busy = self._price_pipeline(spec, reports, plan)
        elif plan.kind == "tensor":
            service, busy = self._price_tensor(spec, reports, plan)
        else:
            service, busy = self._price_single(spec, reports)
        return ShardedBatchResult(
            reports=reports, service_cycles=service, shard_busy_cycles=busy
        )

    def _price_single(self, spec, reports):
        memory = max(
            self._inflated(spec.name, r.memory_cycles) for r in reports
        )
        compute = sum(r.compute_cycles for r in reports)
        service = self.service.dispatch_overhead_cycles + memory + compute
        return service, [memory + compute]

    def _stage_bounds(self, spec, reports, shards):
        """Contiguous stage ranges over the *report's* layer list,
        balanced on the static dense-MAC cost of each layer.  A model
        with fewer layers than shards uses one stage per layer (the
        surplus chips idle)."""
        costs = [spec.layer(layer.name).macs for layer in reports[0].layers]
        return partition_layers(costs, min(shards, len(costs)))

    def _price_pipeline(self, spec, reports, plan):
        bounds = self._stage_bounds(spec, reports, plan.shards)
        # per-boundary transfer cost (same for every sample): the stage's
        # last activation tensor over the shared inter-chip link, which
        # in steady state is driven by every boundary at once.
        sharers = max(1, len(bounds) - 1)
        transfers = []
        for _, end in bounds[:-1]:
            edge_layer = spec.layer(reports[0].layers[end - 1].name)
            num_bytes = boundary_elements(edge_layer) * BYTES_PER_ELEMENT
            transfers.append(
                interchip_transfer_cycles(
                    num_bytes, plan.link_bandwidth, sharers
                )
            )
        transfers.append(0)  # the last stage keeps its output on-chip
        # per-stage batch service, mirroring the single-chip ServiceModel:
        # the stage's weight slice streams once per batch (max over
        # samples, co-location inflation folded in) while each sample pays
        # its compute plus the boundary hop to the next chip.
        stage_memory = []
        stage_compute = []  # per stage, per sample
        for start, end in bounds:
            stage_memory.append(
                max(
                    self._inflated(
                        spec.name,
                        sum(l.memory_cycles for l in r.layers[start:end]),
                    )
                    for r in reports
                )
            )
            stage_compute.append(
                [
                    sum(l.compute_cycles for l in r.layers[start:end])
                    for r in reports
                ]
            )
        batch_service = [
            stage_memory[s]
            + sum(stage_compute[s])
            + transfers[s] * len(reports)
            for s in range(len(bounds))
        ]
        # stage s starts once the first sample has filled the pipe down
        # to it, then streams the whole batch; the makespan is the
        # worst such start-plus-service window.
        first_sample = [
            stage_memory[s] + stage_compute[s][0] + transfers[s]
            for s in range(len(bounds))
        ]
        service = self.service.dispatch_overhead_cycles + max(
            sum(first_sample[:s]) + batch_service[s]
            for s in range(len(bounds))
        )
        # surplus chips (more shards than layers) idle through the batch
        busy = batch_service + [0] * (plan.shards - len(bounds))
        return service, busy

    def _price_tensor(self, spec, reports, plan):
        k = plan.shards
        memory_peak = 0
        compute_total = 0
        for r in reports:
            sample_memory = 0
            sample_compute = 0
            for layer in r.layers:
                # each chip streams its 1/k weight slice behind the one
                # shared DRAM channel, at a 1/k bandwidth share
                slice_bytes = math.ceil(layer.dram_bytes / k)
                sample_memory += shared_channel_cycles(
                    slice_bytes, self.config.dram_bandwidth, k
                )
                # compute parallelises across the k chips; every layer
                # then all-reduces its partial outputs around the ring
                # (2 * (k - 1) / k of the tensor crosses each link)
                out_bytes = (
                    boundary_elements(spec.layer(layer.name))
                    * BYTES_PER_ELEMENT
                )
                allreduce = interchip_transfer_cycles(
                    math.ceil(out_bytes * 2 * (k - 1) / k),
                    plan.link_bandwidth,
                )
                sample_compute += math.ceil(layer.compute_cycles / k) + allreduce
            memory_peak = max(
                memory_peak, self._inflated(spec.name, sample_memory)
            )
            compute_total += sample_compute
        service = (
            self.service.dispatch_overhead_cycles + memory_peak + compute_total
        )
        # the split is symmetric: every chip is busy for the whole batch
        return service, [memory_peak + compute_total] * k


def plan_for(
    model,
    shards: int,
    executor: BatchExecutor,
    stage: str | None = None,
    link_bandwidth: int = 32,
    reference_batch: int = 4,
) -> ShardPlan:
    """Search the split kinds and return the cheapest plan for ``model``.

    Prices a reference batch (workload seeds ``0..reference_batch-1``)
    under every applicable split at the given shard count and keeps the
    one with the lowest service time; ties break toward the earlier
    entry of :data:`SPLIT_KINDS` (simpler plan wins).  With ``shards=1``
    the only candidate is the single-chip plan.

    Args:
        model: model name or spec.
        shards: chips available to the shard group.
        executor: the executor whose cost model (and report cache) the
            search prices against.
        stage: degradation-ladder rung to price at (None = configured).
        link_bandwidth: inter-chip link bytes per cycle.
        reference_batch: samples in the reference batch.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if reference_batch < 1:
        raise ValueError(
            f"reference_batch must be >= 1, got {reference_batch}"
        )
    spec = executor._resolve(model)
    if shards == 1 or len(spec.layers) < 2:
        return ShardPlan()
    candidates = [ShardPlan()]
    if shards <= len(spec.layers):
        candidates.append(
            ShardPlan(
                kind="pipeline", shards=shards, link_bandwidth=link_bandwidth
            )
        )
    candidates.append(
        ShardPlan(kind="tensor", shards=shards, link_bandwidth=link_bandwidth)
    )
    seeds = list(range(reference_batch))
    best = None
    best_cycles = None
    for plan in candidates:
        probe = ShardedExecutor(
            plans={spec.name: plan},
            config=executor.config,
            energy_model=executor.energy_model,
            reduction=executor.reduction,
            sparsity=executor.sparsity,
            service=executor.service,
        )
        probe._cache = executor._cache  # share the memoized reports
        probe._specs = executor._specs
        cycles = probe.execute(spec, seeds, stage=stage).service_cycles
        if best_cycles is None or cycles < best_cycles:
            best, best_cycles = plan, cycles
    return best
