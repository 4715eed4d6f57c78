"""DEAD001: every public export and top-level definition has a caller.

A package ``__init__.py`` is the package's public API surface: its
``__all__`` (or, lacking one, its top-level re-export imports) promises
those names to the rest of the repo.  A module's top-level public
``def``s and ``class``es are the code it offers.  Either one with no
caller is rot -- it inflates the surface the layering and pricing
contracts must police.  DEAD001 walks the whole program model (``src/``,
``tools/``, ``benchmarks/``, ``examples/``, ``perfbench/``) and flags:

- a package export nobody outside the package's subtree references;
- a top-level public definition under ``src/`` that no other module
  references and its own module never uses outside the definition's
  body.  A class decorated with ``@register`` counts as used.

A reference is a ``from mod import name`` (or ``import *``), an
attribute use resolving to ``mod.name``, or -- for exports naming
*submodules* -- any import of ``pkg.name`` or a deeper path.  Callers
under ``tests/`` do not count -- the program model does not parse them:
a test exercises code, it does not justify keeping it.  A deliberate
exception (a tested oracle, a test hook) carries
``# duetlint: disable=DEAD001`` with its reason above it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.analysis.engine import Project
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProgramModel
from repro.analysis.rules import ProjectRule, dotted_name, register, resolve_target

import ast


def _exports(info: ModuleInfo) -> list[tuple[str, int]]:
    """Public ``(name, line)`` exports promised by a package __init__."""
    if info.explicit_all is not None:
        return [
            (name, info.all_line)
            for name in info.explicit_all
            if not name.startswith("_")
        ]
    return sorted(
        (name, line)
        for name, (kind, line) in info.symbols.items()
        if kind == "import" and not name.startswith("_")
    )


def _attribute_refs(info: ModuleInfo) -> set[str]:
    """Absolute dotted paths of every attribute chain in ``info``."""
    refs: set[str] = set()
    for node in info.parsed.nodes:
        if isinstance(node, ast.Attribute):
            if dotted_name(node) is None:
                continue
            resolved = resolve_target(info.parsed, node)
            if resolved is not None:
                refs.add(resolved)
    return refs


def _definitions(info: ModuleInfo) -> Iterator[ast.stmt]:
    """Top-level public ``def``s and ``class``es, minus ``@register`` ones."""
    for node in info.parsed.tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or node.name.startswith("_"):
            continue
        if any(dotted_name(d) == "register" for d in node.decorator_list):
            continue
        yield node


def _used_outside(definition: ast.stmt, name_counts: Counter) -> bool:
    """True when its module names ``definition`` outside its own body.

    ``name_counts`` counts the module's ``Name`` ids; the definition's
    own subtree is walked only when its name occurs at all.
    """
    total = name_counts[definition.name]
    return total > 0 and total > sum(
        isinstance(n, ast.Name) and n.id == definition.name
        for n in ast.walk(definition)
    )


@register
class DeadExportRule(ProjectRule):
    """DEAD001: exports and top-level definitions need non-test callers."""

    code = "DEAD001"
    title = "public exports and top-level definitions have non-test callers"

    def check_program(
        self, program: ProgramModel, project: Project
    ) -> Iterator[Finding]:
        callers = [program.modules[name] for name in sorted(program.modules)]
        attribute_refs = {info.name: _attribute_refs(info) for info in callers}
        for info in callers:
            if not info.relpath.startswith("src/"):
                continue
            if info.is_package:
                yield from self._check_package(program, info, callers, attribute_refs)
            others = [other for other in callers if other is not info]
            name_counts = Counter(
                n.id for n in info.parsed.nodes if isinstance(n, ast.Name)
            )
            for node in _definitions(info):
                if _used_outside(node, name_counts) or self._referenced(
                    program, info, node.name, others, attribute_refs
                ):
                    continue
                yield info.parsed.finding(
                    node,
                    self.code,
                    f"top-level '{node.name}' of {info.name} has no caller "
                    "outside tests: delete it (or add the caller that was "
                    "supposed to exist)",
                    self.severity,
                )

    def _check_package(
        self,
        program: ProgramModel,
        package: ModuleInfo,
        callers: list[ModuleInfo],
        attribute_refs: dict[str, set[str]],
    ) -> Iterator[Finding]:
        subtree = package.name + "."
        outside = [
            info
            for info in callers
            if info.name != package.name and not info.name.startswith(subtree)
        ]
        for name, line in _exports(package):
            if self._referenced(program, package, name, outside, attribute_refs):
                continue
            yield package.parsed.finding(
                _Anchor(line),
                self.code,
                f"public export '{name}' of {package.name} has no "
                "cross-module references outside tests: prune it from the "
                "package surface (or add the caller that was supposed "
                "to exist)",
                self.severity,
            )

    def _referenced(
        self,
        program: ProgramModel,
        module: ModuleInfo,
        name: str,
        outside: list[ModuleInfo],
        attribute_refs: dict[str, set[str]],
    ) -> bool:
        dotted = f"{module.name}.{name}"
        is_submodule = dotted in program.modules
        for info in outside:
            for edge in info.edges:
                if edge.target == module.name and (
                    name in edge.names or "*" in edge.names
                ):
                    return True
                if is_submodule and (
                    edge.target == dotted
                    or edge.target.startswith(dotted + ".")
                ):
                    return True
            if dotted in attribute_refs[info.name]:
                return True
        return False


class _Anchor:
    """Line carrier for findings anchored at an export's source line."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.col_offset = 0
