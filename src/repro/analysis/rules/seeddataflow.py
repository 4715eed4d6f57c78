"""SEED001: dataflow-tracked worker-RNG provenance.

The parallel engine's determinism contract (``--jobs 1`` and ``--jobs
N`` produce byte-identical documents) only holds when every worker-side
RNG descends from the root seed through ``numpy.random.SeedSequence``
``.spawn`` -- the one construction NumPy guarantees gives statistically
independent, index-stable child streams.  SEED001 catches the two
classic mistakes, which both pass tests on one machine and then diverge
or correlate across worker counts:

- an *unseeded* generator draws OS entropy, so every run differs.  The
  rule is built on :mod:`repro.analysis.dataflow`: it tracks where
  generators *come from*, so an unseeded generator smuggled through an
  alias or a helper function in another module is still a finding in
  the module where it reaches parallel or serving code;
- *parent-seed reuse*: a module that imports ``multiprocessing`` or
  ``concurrent.futures`` and constructs seeded generators, but never
  calls ``SeedSequence(...).spawn(...)``, hands every worker the same
  stream.  This is reported at the module's parallel import.

Scope: a module is *worker-adjacent* when it imports a parallel
execution primitive, imports ``repro.parallel`` (the campaign engine),
or lives under ``src/repro/serving/`` or ``src/repro/reliability/``
(the serving simulators seed per-worker streams, and the recovery
policies draw backoff/hedge jitter that must replay per seed).  Within
scope, any expression whose provenance is definitely
:data:`~repro.analysis.dataflow.TAINTED` -- an unseeded
generator, however indirectly constructed -- is reported.  UNKNOWN
provenance stays silent: SEED001 only speaks when it can prove the
entropy leak.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import _RNG_CONSTRUCTORS, RngDataflow
from repro.analysis.engine import Project
from repro.analysis.findings import Finding
from repro.analysis.project import ImportEdge, ModuleInfo, ProgramModel
from repro.analysis.rules import ProjectRule, register, resolve_target

#: external modules whose import marks a file as worker-adjacent.
_PARALLEL_MODULES = ("multiprocessing", "concurrent.futures")

#: internal package whose import marks a file as worker-adjacent.
_CAMPAIGN_PACKAGE = "repro.parallel"

#: path prefixes always in scope: serving simulators spawn worker
#: streams, and recovery jitter must replay byte-identically per seed.
_ALWAYS_IN_SCOPE = ("src/repro/serving/", "src/repro/reliability/")


def _imports_any(edge: ImportEdge, modules: tuple[str, ...]) -> bool:
    return not edge.type_checking and any(
        edge.target == mod or edge.target.startswith(mod + ".") for mod in modules
    )


def _parallel_import(info: ModuleInfo) -> ImportEdge | None:
    """The first runtime import of a parallel-execution module, if any."""
    return next(
        (edge for edge in info.edges if _imports_any(edge, _PARALLEL_MODULES)),
        None,
    )


def _worker_adjacent(info: ModuleInfo) -> bool:
    """Whether SEED001 watches ``info`` (see module docstring)."""
    return (
        info.relpath.startswith(_ALWAYS_IN_SCOPE)
        or _parallel_import(info) is not None
        or any(_imports_any(edge, (_CAMPAIGN_PACKAGE,)) for edge in info.edges)
    )


def _reuses_parent_seed(info: ModuleInfo) -> bool:
    """Seeded RNG construction with no ``SeedSequence(...).spawn(...)``."""
    seeded = seed_sequence = spawn = False
    for node in info.parsed.nodes:
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            spawn = True
        target = resolve_target(info.parsed, node.func) or ""
        if target == "SeedSequence" or target.endswith(".SeedSequence"):
            seed_sequence = True
        elif target in _RNG_CONSTRUCTORS and (node.args or node.keywords):
            seeded = True
    return seeded and not (seed_sequence and spawn)


@register
class SeedDataflowRule(ProjectRule):
    """SEED001: worker-reaching RNGs provably descend from spawn lineage."""

    code = "SEED001"
    title = "worker-adjacent RNGs must not carry OS-entropy provenance"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "tools/"))

    def check_program(
        self, program: ProgramModel, project: Project
    ) -> Iterator[Finding]:
        in_scope = [
            program.modules[name]
            for name in sorted(program.modules)
            if self.applies_to(program.modules[name].relpath)
            and _worker_adjacent(program.modules[name])
        ]
        if not in_scope:
            return
        flow = RngDataflow(program)
        flow.summarize()
        for info in in_scope:
            for site in flow.analyze(info):
                yield info.parsed.finding(
                    _Site(site.line, site.col),
                    self.code,
                    f"worker-adjacent module binds a tainted RNG: "
                    f"{site.reason}; derive it from "
                    "numpy.random.SeedSequence.spawn (e.g. "
                    "repro.parallel.spawn_task_seeds) so shards replay "
                    "identically for any --jobs value",
                    self.severity,
                )
            parallel = _parallel_import(info)
            if parallel is not None and _reuses_parent_seed(info):
                yield info.parsed.finding(
                    _Site(parallel.line, 0),
                    self.code,
                    "module spawns workers and constructs seeded RNGs but "
                    "never derives them via "
                    "numpy.random.SeedSequence(...).spawn(...): reusing one "
                    "parent seed across workers correlates their streams "
                    "(see repro.parallel.spawn_task_seeds)",
                    self.severity,
                )


class _Site:
    """Line/col carrier for finding construction at a dataflow site."""

    def __init__(self, lineno: int, col_offset: int):
        self.lineno = lineno
        self.col_offset = col_offset
