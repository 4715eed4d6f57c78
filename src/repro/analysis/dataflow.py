"""RNG-provenance dataflow: an intraprocedural + cross-module taint lattice.

A check that pattern-matches RNG construction inside one file misses a
worker seeded through an alias or a helper in another module:

    # helpers.py -- no parallel imports
    def fresh():
        return np.random.default_rng()          # OS entropy!

    # campaign.py
    from helpers import fresh as make_rng
    rng = make_rng()                            # no constructor call here

This module tracks where generators *come from* instead of what the
constructor call looks like; SEED001 reports what it finds.  Every expression gets a provenance from a
small lattice:

- :data:`SPAWNED` -- derived from ``SeedSequence.spawn`` lineage (child
  seeds, generators seeded with them, values computed from them);
- :data:`TAINTED` -- a definitely-unseeded generator or bit generator
  (OS entropy), however many aliases and helper calls it flowed through;
- :data:`UNKNOWN` -- anything the analysis cannot judge (config
  attributes, external calls, mixed branches).  Unknown stays *silent*:
  SEED001 reports only definite taint, so the lattice is deliberately
  conservative toward UNKNOWN everywhere except the two definite ends.

Cross-module flows are handled with per-function summaries (returns
SPAWNED / TAINTED / its ``i``-th parameter / UNKNOWN), computed to a
bounded fixed point over the whole :class:`~repro.analysis.project.ProgramModel`
so ``from helpers import fresh as make_rng`` resolves through the
re-export machinery to the defining function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import ModuleInfo, ProgramModel

__all__ = [
    "SPAWNED",
    "TAINTED",
    "UNKNOWN",
    "Prov",
    "TaintSite",
    "RngDataflow",
    "resolve_dotted",
]

#: provenance kinds (lattice points; ``param`` only appears in summaries).
SPAWNED = "spawned"
TAINTED = "tainted"
UNKNOWN = "unknown"
_PARAM = "param"

#: resolved call targets that construct a generator / bit generator.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
}

#: call targets that mint SeedSequence.spawn children by contract.
_SPAWN_HELPERS = {
    "repro.parallel.spawn_task_seeds",
    "repro.parallel.engine.spawn_task_seeds",
}

#: builtins that pass their argument's provenance through unchanged.
_PASSTHROUGH_BUILTINS = {"int", "list", "tuple", "sorted", "reversed", "iter", "next"}


@dataclass(frozen=True)
class Prov:
    """One lattice value: a kind plus the human-readable origin trail."""

    kind: str
    reason: str = ""
    param: int = -1

    def __repr__(self):  # compact in test failures
        return f"Prov({self.kind}{f', param={self.param}' if self.param >= 0 else ''})"


_UNKNOWN = Prov(UNKNOWN)


def _dotted_name(node: ast.AST) -> str | None:
    # local copy of rules.dotted_name: the rule package imports this
    # module (via the SEED001 rule), so depending on it back would cycle
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _join(a: Prov, b: Prov) -> Prov:
    """Lattice join: agreement survives, any disagreement is UNKNOWN."""
    if a.kind == b.kind and a.param == b.param:
        return a
    return _UNKNOWN


@dataclass(frozen=True)
class TaintSite:
    """One definite-taint site SEED001 will report.

    Attributes:
        line: 1-based source line of the tainted expression.
        col: 0-based column.
        reason: origin trail, e.g. ``unseeded numpy.random.default_rng()
            via repro.fixture.helpers.fresh``.
    """

    line: int
    col: int
    reason: str


@dataclass(frozen=True)
class _Summary:
    """Return-value provenance of one module-level function."""

    prov: Prov
    params: tuple[str, ...] = ()


def resolve_dotted(program: ProgramModel, dotted: str) -> tuple[str, str] | None:
    """``(module, symbol)`` for a fully-qualified internal dotted path.

    Finds the longest module prefix of ``dotted`` inside ``program`` and
    resolves the next component through the re-export chain, so
    ``repro.parallel.spawn_task_seeds`` lands on
    ``("repro.parallel.engine", "spawn_task_seeds")``.  None for
    external or unresolvable paths.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in program.modules:
            resolved = program.resolve_export(prefix, parts[cut])
            if resolved is None:
                return None
            # deeper attribute access (obj.method) is beyond summaries
            if cut + 1 < len(parts):
                return None
            return resolved
    return None


class RngDataflow:
    """Whole-program RNG provenance: summaries plus per-module taint sites.

    Usage::

        flow = RngDataflow(program)
        flow.summarize()                  # bounded cross-module fixed point
        sites = flow.analyze(module_info) # definite-taint sites to report
    """

    #: fixed-point iteration bound; summary chains deeper than this many
    #: cross-module hops degrade to UNKNOWN (silent), never to spurious
    #: findings.
    MAX_ITERATIONS = 4

    def __init__(self, program: ProgramModel):
        self.program = program
        self.summaries: dict[tuple[str, str], _Summary] = {}

    # -- summaries ---------------------------------------------------------

    def summarize(self) -> None:
        """Compute function summaries for every module, to a fixed point."""
        infos = [self.program.modules[name] for name in sorted(self.program.modules)]
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for info in infos:
                for node in info.parsed.tree.body:
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    summary = self._summarize_function(info, node)
                    key = (info.name, node.name)
                    if self.summaries.get(key) != summary:
                        self.summaries[key] = summary
                        changed = True
            if not changed:
                break

    def _summarize_function(self, info: ModuleInfo, node) -> _Summary:
        params = tuple(a.arg for a in node.args.args)
        env = {name: Prov(_PARAM, param=i) for i, name in enumerate(params)}
        evaluator = _Evaluator(self, info, collect=False)
        returns: list[Prov] = []
        evaluator.exec_block(env, node.body, returns)
        if not returns:
            return _Summary(_UNKNOWN, params)
        prov = returns[0]
        for other in returns[1:]:
            prov = _join(prov, other)
        return _Summary(prov, params)

    # -- per-module analysis ----------------------------------------------

    def analyze(self, info: ModuleInfo) -> list[TaintSite]:
        """Definite-taint sites in ``info``, sorted and deduplicated."""
        evaluator = _Evaluator(self, info, collect=True)
        evaluator.exec_block({}, info.parsed.tree.body, [])
        return sorted(set(evaluator.sites), key=lambda s: (s.line, s.col))


class _Evaluator:
    """One pass over a module or function body, tracking provenance.

    Straight-line environments with joins at branch merges; loop bodies
    are walked once (taint here is about construction sites, not
    iteration counts).  ``collect=True`` records every Call expression
    whose provenance is definitely TAINTED.
    """

    def __init__(self, flow: RngDataflow, info: ModuleInfo, collect: bool):
        self.flow = flow
        self.info = info
        self.collect = collect
        self.sites: list[TaintSite] = []
        self._call_depth = 0

    # -- statements --------------------------------------------------------

    def exec_block(self, env: dict, stmts: list, returns: list[Prov]) -> None:
        for stmt in stmts:
            self.exec_stmt(env, stmt, returns)

    def exec_stmt(self, env: dict, stmt: ast.stmt, returns: list[Prov]) -> None:
        if isinstance(stmt, ast.Assign):
            prov = self.eval_expr(env, stmt.value)
            for target in stmt.targets:
                self._bind(env, target, prov)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(env, stmt.target, self.eval_expr(env, stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.eval_expr(env, stmt.value)
            self._bind(env, stmt.target, _UNKNOWN)
        elif isinstance(stmt, ast.Return):
            prov = (
                self.eval_expr(env, stmt.value)
                if stmt.value is not None
                else _UNKNOWN
            )
            returns.append(prov)
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(env, stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval_expr(env, stmt.test)
            self._branch(env, [stmt.body, stmt.orelse], returns)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            element = self.eval_expr(env, stmt.iter)
            self._bind(env, stmt.target, element)
            self._branch(env, [stmt.body, stmt.orelse], returns)
        elif isinstance(stmt, ast.While):
            self.eval_expr(env, stmt.test)
            self._branch(env, [stmt.body, stmt.orelse], returns)
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body, stmt.orelse, stmt.finalbody]
            blocks.extend(h.body for h in stmt.handlers)
            self._branch(env, blocks, returns)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                prov = self.eval_expr(env, item.context_expr)
                if item.optional_vars is not None:
                    self._bind(env, item.optional_vars, prov)
            self.exec_block(env, stmt.body, returns)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested function: analyzed for sites with a fresh frame
            # (module-level summaries already cover its return value)
            if self.collect:
                inner = dict(env)
                inner.update(
                    {a.arg: _UNKNOWN for a in stmt.args.args}
                )
                self.exec_block(inner, stmt.body, [])
            env[stmt.name] = _UNKNOWN
        elif isinstance(stmt, ast.ClassDef):
            if self.collect:
                self.exec_block(dict(env), stmt.body, [])
            env[stmt.name] = _UNKNOWN
        # other statements carry no RNG provenance

    def _branch(self, env: dict, blocks: list[list], returns: list[Prov]) -> None:
        outcomes = []
        for block in blocks:
            branch_env = dict(env)
            self.exec_block(branch_env, block, returns)
            outcomes.append(branch_env)
        for name in set().union(*outcomes):
            provs = [e.get(name, env.get(name, _UNKNOWN)) for e in outcomes]
            merged = provs[0]
            for p in provs[1:]:
                merged = _join(merged, p)
            env[name] = merged

    def _bind(self, env: dict, target: ast.AST, prov: Prov) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = prov
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(env, element, prov)
        elif isinstance(target, ast.Starred):
            self._bind(env, target.value, prov)
        # attribute/subscript stores: no tracked cell, drop

    # -- expressions -------------------------------------------------------

    def eval_expr(self, env: dict, node: ast.AST) -> Prov:
        if isinstance(node, ast.Name):
            return env.get(node.id, _UNKNOWN)
        if isinstance(node, ast.Call):
            return self._eval_call(env, node)
        if isinstance(node, ast.Subscript):
            self.eval_expr(env, node.slice)
            return self.eval_expr(env, node.value)  # element keeps lineage
        if isinstance(node, ast.Attribute):
            base = self.eval_expr(env, node.value)
            # reading an attribute off spawn lineage stays in the lineage
            return base if base.kind == SPAWNED else _UNKNOWN
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            provs = [self.eval_expr(env, e) for e in node.elts]
            if not provs:
                return _UNKNOWN
            merged = provs[0]
            for p in provs[1:]:
                merged = _join(merged, p)
            return merged
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(env, node, node.elt)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(env, node, node.value)
        if isinstance(node, ast.IfExp):
            self.eval_expr(env, node.test)
            return _join(
                self.eval_expr(env, node.body), self.eval_expr(env, node.orelse)
            )
        if isinstance(node, ast.NamedExpr):
            prov = self.eval_expr(env, node.value)
            self._bind(env, node.target, prov)
            return prov
        if isinstance(node, ast.Starred):
            return self.eval_expr(env, node.value)
        if isinstance(node, ast.Await):
            return self.eval_expr(env, node.value)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(env, child)
        return _UNKNOWN

    def _eval_comprehension(self, env: dict, node, elt: ast.AST) -> Prov:
        inner = dict(env)
        for comp in node.generators:
            element = self.eval_expr(inner, comp.iter)
            self._bind(inner, comp.target, element)
            for cond in comp.ifs:
                self.eval_expr(inner, cond)
        return self.eval_expr(inner, elt)

    # -- calls -------------------------------------------------------------

    def _eval_call(self, env: dict, node: ast.Call) -> Prov:
        for arg in node.args:
            self.eval_expr(env, arg)
        for kw in node.keywords:
            self.eval_expr(env, kw.value)
        prov = self._call_provenance(env, node)
        if self.collect and prov.kind == TAINTED:
            self.sites.append(
                TaintSite(line=node.lineno, col=node.col_offset, reason=prov.reason)
            )
        return prov

    def _call_provenance(self, env: dict, node: ast.Call) -> Prov:
        func = node.func
        # seed_sequence.spawn(...) -- the blessed derivation, whatever
        # the receiver is called
        if isinstance(func, ast.Attribute) and func.attr == "spawn":
            self.eval_expr(env, func.value)
            return Prov(SPAWNED, "SeedSequence.spawn children")
        dotted = _dotted_name(func)
        if dotted is None:
            if isinstance(func, ast.expr):
                self.eval_expr(env, func)
            return _UNKNOWN
        target = self._resolve_call_target(env, dotted)
        if target is None:
            return _UNKNOWN
        if target in _RNG_CONSTRUCTORS:
            return self._constructor_provenance(env, node, target)
        if target in _SPAWN_HELPERS or target.endswith(".SeedSequence"):
            return Prov(SPAWNED, f"{target.rpartition('.')[2]} lineage")
        if target in _PASSTHROUGH_BUILTINS and len(node.args) >= 1:
            return self.eval_expr(env, node.args[0])
        return self._summary_provenance(env, node, target)

    def _resolve_call_target(self, env: dict, dotted: str) -> str | None:
        """Absolute dotted path of a call target, or None for locals."""
        head, _, rest = dotted.partition(".")
        if head in env and env[head].kind != UNKNOWN:
            return None  # calling a tracked value; provenance via env
        origin = self.info.import_origin(head)
        if origin is not None:
            target_module, original = origin
            base = f"{target_module}.{original}"
            return f"{base}.{rest}" if rest else base
        aliases = self.info.parsed.imports.module_aliases
        if head in aliases:
            base = aliases[head]
            return f"{base}.{rest}" if rest else base
        if not rest and head in self.info.symbols:
            return f"{self.info.name}.{head}"  # same-module helper
        return dotted

    def _constructor_provenance(self, env, node: ast.Call, target: str) -> Prov:
        short = target.rpartition(".")[2]
        if not node.args and not node.keywords:
            return Prov(TAINTED, f"unseeded numpy.random.{short}() draws OS entropy")
        seed = node.args[0] if node.args else node.keywords[0].value
        seed_prov = self.eval_expr(env, seed)
        if seed_prov.kind == SPAWNED:
            return Prov(SPAWNED, f"{short} seeded from spawn lineage")
        if seed_prov.kind == TAINTED:
            return Prov(TAINTED, seed_prov.reason)
        return _UNKNOWN

    def _summary_provenance(self, env: dict, node: ast.Call, target: str) -> Prov:
        module, _, name = target.rpartition(".")
        if not module:
            return _UNKNOWN
        resolved = resolve_dotted(self.flow.program, target)
        if resolved is None:
            return _UNKNOWN
        summary = self.flow.summaries.get(resolved)
        if summary is None:
            return _UNKNOWN
        prov = summary.prov
        if prov.kind == _PARAM:
            return self._argument_provenance(env, node, summary, prov.param)
        if prov.kind == TAINTED:
            via = ".".join(resolved)
            return Prov(TAINTED, f"{prov.reason} via {via}")
        return prov

    def _argument_provenance(
        self, env: dict, node: ast.Call, summary: _Summary, index: int
    ) -> Prov:
        if index < len(node.args):
            return self.eval_expr(env, node.args[index])
        if index < len(summary.params):
            wanted = summary.params[index]
            for kw in node.keywords:
                if kw.arg == wanted:
                    return self.eval_expr(env, kw.value)
        return _UNKNOWN
