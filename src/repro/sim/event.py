"""Discrete-event validation of the layer-pipeline model.

The analytical CNN pipeline (:mod:`repro.sim.pipeline`) costs each layer
as ``max(executor, speculator, memory)`` -- an overlap assumption.  This
module checks that assumption with an explicit discrete-event schedule:
executor, speculator, and the DRAM interface are single-server resources;
each layer contributes jobs with the real dataflow dependencies of paper
Section IV-A:

- ``exec[i]`` needs its switching maps (``spec[i]`` done), its data
  (``dram[i]`` done) and the array (``exec[i-1]`` done);
- ``spec[i+1]`` consumes layer ``i``'s outputs tile by tile: it may start
  as soon as ``exec[i]`` starts, but cannot finish before ``exec[i]``
  finishes (the last tiles arrive last);
- ``dram[i+1]`` prefetches behind ``dram[i]`` (double buffering).

The resulting makespan is compared with the analytical total in the test
suite; agreement within a few percent is the validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.layer_spec import BYTES_PER_ELEMENT, ModelSpec
from repro.sim.config import DuetConfig
from repro.sim.executor import ExecutorModel
from repro.sim.speculator import SpeculatorModel
from repro.sim.tiling import choose_tiling
from repro.workloads.sparsity import CnnLayerWorkload

__all__ = ["Job", "EventSchedule", "EventSimulator", "simulate_cnn_events"]


@dataclass
class Job:
    """One unit of work bound to a resource.

    Attributes:
        name: unique job id.
        resource: the serialising resource (``executor``, ``speculator``,
            ``dram``).
        duration: busy cycles.
        after_end_of: jobs that must *finish* before this one starts.
        after_start_of: jobs that must have *started* before this one
            starts (producer-consumer tile streaming).
        ends_no_earlier_than: jobs whose *end* lower-bounds this job's end
            (the consumer cannot outrun its producer's last tile).
    """

    name: str
    resource: str
    duration: int
    after_end_of: list[str] = field(default_factory=list)
    after_start_of: list[str] = field(default_factory=list)
    ends_no_earlier_than: list[str] = field(default_factory=list)


@dataclass
class EventSchedule:
    """The solved schedule: per-job (start, end) plus the makespan."""

    times: dict[str, tuple[int, int]]
    makespan: int

    def start(self, name: str) -> int:
        """Job start time."""
        return self.times[name][0]

    def end(self, name: str) -> int:
        """Job end time."""
        return self.times[name][1]


class EventSimulator:
    """Serialising-resource scheduler over a job DAG.

    Jobs must be added in a topological order of their constraints (layer
    order does this naturally for the pipeline DAG).
    """

    def __init__(self):
        self.jobs: list[Job] = []
        self._names: set[str] = set()

    def add(self, job: Job) -> None:
        """Register a job.

        Raises:
            ValueError: on duplicate names or unknown dependencies (jobs
                must be added after everything they reference).
        """
        if job.name in self._names:
            raise ValueError(f"duplicate job name {job.name!r}")
        for dep in job.after_end_of + job.after_start_of + job.ends_no_earlier_than:
            if dep not in self._names:
                raise ValueError(
                    f"job {job.name!r} references unknown job {dep!r}"
                )
        if job.duration < 0:
            raise ValueError(f"negative duration for {job.name!r}")
        self.jobs.append(job)
        self._names.add(job.name)

    def run(self) -> EventSchedule:
        """Solve the schedule greedily in insertion order."""
        resource_free: dict[str, int] = {}
        times: dict[str, tuple[int, int]] = {}
        for job in self.jobs:
            start = resource_free.get(job.resource, 0)
            for dep in job.after_end_of:
                start = max(start, times[dep][1])
            for dep in job.after_start_of:
                start = max(start, times[dep][0])
            end = start + job.duration
            for dep in job.ends_no_earlier_than:
                end = max(end, times[dep][1])
            times[job.name] = (start, end)
            resource_free[job.resource] = end
        makespan = max((end for _, end in times.values()), default=0)
        return EventSchedule(times, makespan)


def simulate_cnn_events(
    model: ModelSpec,
    workloads: list[CnnLayerWorkload],
    config: DuetConfig | None = None,
    reduction: float = 0.125,
) -> EventSchedule:
    """Build and solve the event schedule for a CNN model.

    Uses the same per-layer cost models as the analytical pipeline, but
    lets the event engine discover the overlap instead of assuming
    ``max(...)``.
    """
    cfg = config if config is not None else DuetConfig()
    executor = ExecutorModel(cfg)
    speculator = SpeculatorModel(cfg)
    sim = EventSimulator()

    for i, workload in enumerate(workloads):
        spec = workload.spec
        tiling = choose_tiling(spec, cfg.tiling_glb_bytes)
        dram_cycles = -(
            -(tiling.dram_total_words * BYTES_PER_ELEMENT) // cfg.dram_bandwidth
        )
        dram_deps = [f"dram[{i - 1}]"] if i > 0 else []
        sim.add(Job(f"dram[{i}]", "dram", dram_cycles, after_end_of=dram_deps))

        exec_cost = executor.cnn_layer(workload)
        exec_deps = [f"dram[{i}]"]
        if i > 0:
            exec_deps.append(f"exec[{i - 1}]")
        if cfg.enable_output_switching and i > 0:
            exec_deps.append(f"spec[{i}]")
        sim.add(
            Job(
                f"exec[{i}]",
                "executor",
                exec_cost.cycles,
                after_end_of=exec_deps,
            )
        )

        # speculation for layer i+1, streamed from layer i's output tiles
        if cfg.enable_output_switching and i + 1 < len(workloads):
            spec_cost = speculator.cnn_layer(
                workloads[i + 1].spec,
                reduction,
                with_reorder=cfg.enable_adaptive_mapping,
            )
            sim.add(
                Job(
                    f"spec[{i + 1}]",
                    "speculator",
                    spec_cost.cycles,
                    after_start_of=[f"exec[{i}]"],
                    ends_no_earlier_than=[f"exec[{i}]"],
                )
            )
    return sim.run()
