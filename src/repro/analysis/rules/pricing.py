"""PRC001: every serving-reachable executor variant is priced and tested.

PRC001 discovers every *executor variant* -- a public class named
``*Executor``, plus ``ShardPlan`` -- defined anywhere under
``src/repro/``, keeps the ones the serving tier can actually reach
through the import graph, and demands two properties of each:

- a **pricing path**: the defining module's import closure must land in
  the ``sim/`` cost models (:data:`_COST_MODULES`) -- an executor that
  cannot reach the pipeline cost model serves unpriced work;
- a **parity reference**: the class name is word-mentioned somewhere
  under ``tests/`` (a text search of the sources, which the program
  model does not parse) -- an executor no test names has no parity
  anchor pinning it to the static model.

Lazy function-scope imports count for both reachability and pricing
(they are real runtime paths); ``TYPE_CHECKING`` imports count for
neither.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import Project, discover_files
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProgramModel
from repro.analysis.rules import ProjectRule, register

#: modules that constitute "being priced": the dataflow pipelines'
#: cycle/energy models.  A pricing path must reach one of them.
_COST_MODULES = ("repro.sim.pipeline", "repro.dynamic.costmodel")

#: the package whose reachability defines the serving surface.
_SERVING_PACKAGE = "repro.serving"

#: class-name shapes that make a public class an executor variant.
_VARIANT = re.compile(r"^(?:[A-Za-z0-9]*Executor|ShardPlan)$")


def _variant_classes(info: ModuleInfo) -> list[ast.ClassDef]:
    """Public executor-variant classes defined at ``info``'s top level."""
    return [
        node
        for node in info.parsed.tree.body
        if isinstance(node, ast.ClassDef)
        and not node.name.startswith("_")
        and _VARIANT.match(node.name)
    ]


def _forward_closure(program: ProgramModel, roots: list[str]) -> set[str]:
    """Module names reachable from ``roots`` over runtime import edges."""
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        info = program.modules.get(frontier.pop())
        if info is None:
            continue
        for target, _ in program.internal_edges(info):
            if target.name not in seen:
                seen.add(target.name)
                frontier.append(target.name)
    return seen


@register
class ExecutorPricingRule(ProjectRule):
    """PRC001: serving-reachable executors have pricing + parity anchors."""

    code = "PRC001"
    title = "serving-reachable executor variants are priced and parity-tested"

    def check_program(
        self, program: ProgramModel, project: Project
    ) -> Iterator[Finding]:
        serving_roots = [
            name
            for name in program.modules
            if name == _SERVING_PACKAGE
            or name.startswith(_SERVING_PACKAGE + ".")
        ]
        if not serving_roots:
            return  # no serving tier in this tree, nothing to price
        serving_reach = _forward_closure(program, serving_roots)
        test_sources = []
        if project.exists("tests"):
            test_sources = [
                project.read_text(path) or ""
                for path in discover_files(project.root, ["tests"])
            ]
        for name in sorted(program.modules):
            info = program.modules[name]
            if not info.relpath.startswith("src/repro/"):
                continue
            variants = _variant_classes(info)
            if not variants or info.name not in serving_reach:
                continue
            priced = any(
                cost in _forward_closure(program, [info.name])
                for cost in _COST_MODULES
                if cost in program.modules
            )
            for node in variants:
                if not priced:
                    yield info.parsed.finding(
                        node,
                        self.code,
                        f"executor variant '{node.name}' is reachable from "
                        f"{_SERVING_PACKAGE} but its module has no pricing "
                        f"path into the sim cost models "
                        f"({' or '.join(_COST_MODULES)}): serving it would "
                        "run unpriced work",
                        self.severity,
                    )
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if not any(word.search(text) for text in test_sources):
                    yield info.parsed.finding(
                        node,
                        self.code,
                        f"executor variant '{node.name}' is reachable from "
                        f"{_SERVING_PACKAGE} but no test under tests/ "
                        "references it: add a parity test pinning it to "
                        "the static execution path",
                        self.severity,
                    )
