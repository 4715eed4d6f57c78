"""duetlint rule registry and the base class every rule extends.

A rule is a small class with a ``code`` (``DET001``), a scope predicate
(:meth:`Rule.applies_to`), and a :meth:`Rule.check` that yields
:class:`~repro.analysis.findings.Finding` objects for one parsed module.
Rules register themselves with the :func:`register` decorator; the
engine picks up every registered rule by default, and ``--rule`` selects
a subset by code.  A rule that scans a whole module iterates the
``nodes`` list of its :class:`~repro.analysis.engine.ParsedModule` --
the one :func:`ast.walk` the engine does per file -- instead of walking
the tree again.  The catalogue with per-rule rationale lives in
``docs/linting.md``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding

__all__ = [
    "ProjectRule",
    "REGISTRY",
    "default_rules",
    "get_rules",
]


class Rule:
    """Base class for duetlint rules.

    Class attributes:
        code: unique rule identifier (``AAA000`` convention).
        title: one-line summary shown in ``--list-rules``.
        severity: default severity of this rule's findings.
    """

    code: str = ""
    title: str = ""
    severity: str = "error"

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on ``relpath`` (default: ``src/**``)."""
        return relpath.startswith("src/")

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        """Yield findings for ``module``; override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        """A finding at ``node`` carrying this rule's code and severity."""
        return module.finding(node, self.code, message, self.severity)


class ProjectRule(Rule):
    """Base class for whole-program rules.

    A project rule runs once per lint invocation over the
    :class:`~repro.analysis.project.ProgramModel` rather than once per
    file; :meth:`applies_to` filters which *findings* survive (by the
    path they are anchored at), not which files are visited.
    """

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        """Project rules do no per-file work."""
        return iter(())

    def check_program(self, program, project: Project) -> Iterator[Finding]:
        """Yield findings over the whole program; override in subclasses.

        Args:
            program: the built :class:`~repro.analysis.project.ProgramModel`.
            project: the read-only tree view (for context files).
        """
        raise NotImplementedError
        yield  # pragma: no cover


#: code -> rule class, populated by :func:`register`.
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``cls`` to :data:`REGISTRY` by code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def default_rules() -> list[Rule]:
    """One instance of every registered rule, sorted by code."""
    return [REGISTRY[code]() for code in sorted(REGISTRY)]


def get_rules(codes: Iterable[str] | None = None) -> list[Rule]:
    """Rule instances for ``codes`` (all rules when None).

    Raises:
        ValueError: on an unknown code, listing the known ones.
    """
    if codes is None:
        return default_rules()
    unknown = sorted(set(codes) - set(REGISTRY))
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    return [REGISTRY[code]() for code in sorted(set(codes))]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_target(module: ParsedModule, node: ast.AST) -> str | None:
    """Fully-qualified dotted path of a call target, import-resolved.

    ``np.random.rand`` becomes ``numpy.random.rand`` when the module did
    ``import numpy as np``; a bare ``rand`` becomes ``numpy.random.rand``
    after ``from numpy.random import rand``.  Returns the raw dotted
    chain when the head is not an import, or None when the target is not
    a simple Name/Attribute chain.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    imports = module.imports
    if head in imports.module_aliases:
        base = imports.module_aliases[head]
        return f"{base}.{rest}" if rest else base
    if head in imports.imported_names:
        base = imports.imported_names[head]
        return f"{base}.{rest}" if rest else base
    return dotted


# Import the rule modules for their registration side effects.  The
# whole-program rules (layering, seeddataflow, pricing, deadcode) import
# repro.analysis.project / .dataflow, which import this module back for
# the base classes -- keep them after the per-file rules so the bases
# above are defined by the time they load.
from repro.analysis.rules import (  # noqa: E402,F401
    conventions,
    deadcode,
    determinism,
    layering,
    numerics,
    parity,
    pricing,
    reliability,
    seeddataflow,
)
