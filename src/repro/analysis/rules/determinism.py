"""Determinism rules: DET001 (no ambient entropy), DET002 (seeds thread).

The repo's tier-1 contract is byte-identical output per seed (ROADMAP;
PR 2/3/4 all promise it).  That only holds if *no* code path consults
ambient entropy -- the process-global NumPy/stdlib RNG state or the wall
clock -- and if every ``seed`` parameter actually reaches an RNG instead
of dying unused while the callee silently falls back to a default.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register, resolve_target

#: numpy.random attributes that are part of seeded-Generator plumbing,
#: not the global RNG.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: wall-clock calls (fully resolved) banned outside the bench harness.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register
class GlobalEntropyRule(Rule):
    """DET001: no global RNG or wall clock inside ``src/repro``."""

    code = "DET001"
    title = "no global RNG / wall-clock reads in src/repro"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        in_bench = module.relpath.startswith("src/repro/bench/")
        imports = module.imports
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(module, node.func)
            if target is None:
                continue
            if target.startswith("numpy.random."):
                attr = target.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        module,
                        node,
                        f"call to the global NumPy RNG ({dotted_name(node.func)}): "
                        "use a seeded numpy.random.Generator "
                        "(np.random.default_rng(seed)) threaded from the caller",
                    )
                continue
            head = (dotted_name(node.func) or "").split(".", 1)[0]
            head_is_import = (
                head in imports.module_aliases or head in imports.imported_names
            )
            if (
                head_is_import
                and (target == "random" or target.startswith("random."))
                and not target.startswith("random.Random")
                and target != "random.SystemRandom"
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to the global stdlib RNG ({dotted_name(node.func)}): "
                    "use random.Random(seed) or a numpy Generator threaded "
                    "from the caller",
                )
                continue
            if target in _CLOCK_CALLS:
                if in_bench and target.startswith("time."):
                    continue  # bench timing is the one legitimate clock user
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read ({dotted_name(node.func)}) breaks seeded "
                    "determinism: simulated time must come from the event "
                    "clock (only repro.bench may time wall clock)",
                )


def _is_stub_body(body: list[ast.stmt]) -> bool:
    """True for docstring-only / ``pass`` / ``...`` / ``raise`` bodies."""
    statements = list(body)
    if (
        statements
        and isinstance(statements[0], ast.Expr)
        and isinstance(statements[0].value, ast.Constant)
        and isinstance(statements[0].value.value, str)
    ):
        statements = statements[1:]
    if not statements:
        return True
    if len(statements) == 1:
        stmt = statements[0]
        if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Raise):
            return True
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            return True
    return False


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = dotted_name(decorator)
        if name and name.rsplit(".", 1)[-1] in {"abstractmethod", "overload"}:
            return True
    return False


@register
class DeadSeedRule(Rule):
    """DET002: a ``seed`` parameter must be used, not silently dropped."""

    code = "DET002"
    title = "every seed parameter must be threaded"

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            all_args = [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]
            if not any(a.arg == "seed" for a in all_args):
                continue
            if _is_stub_body(node.body) or _is_abstract(node):
                continue
            used = any(
                isinstance(inner, ast.Name) and inner.id == "seed"
                for stmt in node.body
                for inner in ast.walk(stmt)
            )
            if not used:
                yield self.finding(
                    module,
                    node,
                    f"'{node.name}' takes a 'seed' parameter but never reads "
                    "it: thread it into the RNG/callee or remove it (a dead "
                    "seed silently de-seeds callers)",
                )
