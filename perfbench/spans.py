"""Span recording around the public entry points of each library layer.

A :class:`Tracer` keeps every span -- name, start, end, parent, op id --
in memory and accumulates each layer's *self time* (its span minus the
part covered by child spans) as spans close.  :func:`install` wraps the
layer boundaries listed in :data:`TARGETS` so calls made *inside* the
library (an executor pricing a batch, a campaign's inline warm task) are
recorded too; :meth:`Patches.remove` puts the original callables back.
An untraced run never calls :func:`install`, so the library runs exactly
as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: span name of an executor's batch pricing (nested calls are one layer).
EXECUTE = "sim.batching.execute"


class Tracer:
    """In-memory span recorder with running self-time totals.

    Attributes:
        spans: ``[name, start, end, parent, op]`` per span, in open order;
            ``start``/``end`` are seconds since the tracer was created,
            ``parent`` is the parent's index (``-1`` for roots) and ``op``
            the timed-op id (``-1`` outside ops).
        self_s: ``(name, in_op) -> seconds`` of self time, where ``in_op``
            tells spans inside timed ops from set-up spans.
        total_s: ``(name, in_op) -> seconds`` of span time.
        counts: ``(name, in_op) -> n`` event counts recorded at the same
            boundaries.
        op: id of the op currently running (``-1`` outside ops).
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self.spans: list[list] = []
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def begin(self, name: str) -> None:
        """Open a span as a child of the innermost open span."""
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self._clock() - self._origin, None, parent, self.op])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        """Close the innermost open span."""
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = self._clock() - self._origin
        duration = span[2] - span[1]
        key = (span[0], span[4] >= 0)
        self.self_s[key] += duration - covered
        self.total_s[key] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[index][0] == name for index, _ in self._stack)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (split by in-op as spans are)."""
        self.counts[(name, self.op >= 0)] += n

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _count_layers(tracer: Tracer, args, kwargs, report) -> None:
    tracer.count("sim.run.calls")
    tracer.count("sim.run.layers", len(report.layers))
    if tracer.inside(EXECUTE):
        tracer.count("sim.batching.misses")


def _count_samples(tracer: Tracer, args, kwargs, result) -> None:
    if not tracer.inside(EXECUTE):  # subclasses delegate to their parents
        seeds = kwargs["workload_seeds"] if "workload_seeds" in kwargs else args[2]
        tracer.count("sim.batching.samples", len(seeds))


def _count_requests(name: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(f"{name}.requests", len(result.records))

    return hook


#: ``(module, attribute path, span name, counter hook)`` per layer boundary.
#: A dotted path names a method and is wrapped on its class; a plain name
#: is a function and is rebound in every ``repro`` module that imported it.
TARGETS = (
    ("repro.workloads.sparsity", "cnn_workloads", "workloads.prep", None),
    ("repro.workloads.sparsity", "rnn_workloads", "workloads.prep", None),
    ("repro.sim.accelerator", "DuetAccelerator.run", "sim.run", _count_layers),
    ("repro.sim.batching", "BatchExecutor.execute", EXECUTE, _count_samples),
    ("repro.sim.sharding", "ShardedExecutor.execute", EXECUTE, _count_samples),
    ("repro.dynamic.executor", "DynamicBatchExecutor.execute", EXECUTE, _count_samples),
    ("repro.dynamic.executor", "DynamicShardedExecutor.execute", EXECUTE, _count_samples),
    ("repro.serving.loadgen", "generate_trace", "serving.loadgen.generate", None),
    ("repro.serving.server", "ServingSimulator.run", "serving.server",
     _count_requests("serving.server")),
    ("repro.serving.faulttol", "FaultTolerantSimulator.run", "serving.faulttol",
     _count_requests("serving.faulttol")),
    ("repro.serving.fleet", "FleetSimulator.run", "serving.fleet",
     _count_requests("serving.fleet")),
    ("repro.models.proxies", "train_classifier", "nn.train", None),
    ("repro.models.dualize", "DualizedCNN.set_thresholds_by_fraction", "core.set_thresholds", None),
    ("repro.models.dualize", "DualizedCNN.evaluate", "core.evaluate", None),
    ("repro.bench.serving", "run_serving_bench", "bench.loadgen", None),
    ("repro.bench.chaos", "run_chaos_bench", "bench.chaos", None),
    ("repro.bench.fleet", "run_fleet_bench", "bench.fleet", None),
    ("repro.bench.faults", "run_fault_matrix", "bench.faults", None),
    ("repro.bench.harness", "run_bench", "bench.bench", None),
    ("repro.bench.dynamic", "run_dynamic_bench", "bench.dynamic", None),
)


def _wrap(fn, name: str, hook, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """The attributes :func:`install` replaced, restorable in one call."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        """Restore every replaced attribute, last replaced first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every boundary in :data:`TARGETS` with a span of ``tracer``."""
    patches = Patches()
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            patches.replace(owner, method, _wrap(owner.__dict__[method], name, hook, tracer))
            continue
        original = getattr(module, path)
        wrapper = _wrap(original, name, hook, tracer)
        for importer in list(sys.modules.values()):
            if getattr(importer, "__name__", "").startswith("repro") and (
                importer.__dict__.get(path) is original
            ):
                patches.replace(importer, path, wrapper)
    return patches
