"""LAY001: the package layering DAG holds -- no upward imports, no cycles.

The repo's architecture is a strict ladder (see the layering-contract
table in ``docs/architecture.md``, which this rule keeps in sync with):
leaf utilities at the bottom, the CLI at the top, and every import
pointing downward or sideways.  ``repro.analysis`` sits at layer 0 on
purpose: the linter imports no other ``repro`` package -- not even its
layer-0 siblings -- so a layering violation can never break the tool
that reports it.

Three finding shapes:

- an *upward* import (lower layer importing a higher one) at the import
  statement;
- a top-level package missing from the layer table (the contract must
  stay exhaustive as the tree grows);
- a drifted ``docs/architecture.md`` table (the prose contract and the
  enforced one must be the same table).

``if TYPE_CHECKING:`` imports are exempt -- they are erased at runtime.
Function-scope lazy imports are *not* exempt: lazy loading fixes import
order, not architecture.  Load-time cycles are separately reported via
:meth:`~repro.analysis.project.ProgramModel.import_cycles`.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.engine import Project
from repro.analysis.findings import Finding
from repro.analysis.project import ProgramModel
from repro.analysis.rules import ProjectRule, register

#: the enforced layer of each top-level unit under ``repro.``
#: (packages, plus the top-level modules ``cli``/``reporting``/
#: ``__main__``).  Lower layers must not import higher ones; equal
#: layers may import each other.  Mirrored by the table in
#: :data:`_DOC_FILE` -- LAY001 itself flags any drift between the two.
LAYERS: dict[str, int] = {
    "nn": 0,
    "quant": 0,
    "parallel": 0,
    "reporting": 0,
    "analysis": 0,
    "validation": 0,
    "core": 1,
    "models": 2,
    "workloads": 3,
    "sim": 4,
    "dynamic": 5,
    "reliability": 6,
    "serving": 6,
    "baselines": 7,
    "experiments": 7,
    "bench": 8,
    "cli": 9,
    "__main__": 9,
}

#: where the human-readable copy of the contract lives.
_DOC_FILE = "docs/architecture.md"

#: one table row: ``| 4 | `sim` |`` (packages backticked, comma-separated).
_DOC_ROW = re.compile(r"^\|\s*(\d+)\s*\|([^|]*)\|")


def _top_level(module_name: str) -> str | None:
    """``sim`` for ``repro.sim.batching``; None outside ``repro.``."""
    if module_name == "repro":
        return None
    if not module_name.startswith("repro."):
        return None
    return module_name.split(".")[1]


def doc_layer_table(text: str) -> dict[str, int]:
    """Parse the layering table out of ``docs/architecture.md`` text.

    Rows look like ``| 4 | `sim` |``; multiple packages per row are
    comma-separated.  Returns package -> layer (empty when no table).
    """
    layers: dict[str, int] = {}
    for line in text.splitlines():
        match = _DOC_ROW.match(line.strip())
        if match is None:
            continue
        layer = int(match.group(1))
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", match.group(2)):
            layers[name.removeprefix("repro.")] = layer
    return layers


@register
class LayeringRule(ProjectRule):
    """LAY001: imports respect the package layering DAG."""

    code = "LAY001"
    title = "package imports follow the layering contract (no upward edges)"
    context_files = (_DOC_FILE,)

    def check_program(
        self, program: ProgramModel, project: Project
    ) -> Iterator[Finding]:
        # fixture trees without the real root package skip the checks
        # that only make sense against the exhaustive contract (doc sync
        # and unlisted packages); direction and cycles always run.
        is_real_tree = "src/repro/__init__.py" in program.by_path
        if is_real_tree:
            yield from self._check_doc(program, project)
        yield from self._check_edges(program, is_real_tree)
        yield from self._check_cycles(program)

    # -- the three finding shapes -----------------------------------------

    def _check_doc(self, program: ProgramModel, project: Project):
        root_init = program.by_path["src/repro/__init__.py"]
        doc_text = project.read_text(_DOC_FILE)
        documented = doc_layer_table(doc_text) if doc_text is not None else {}
        if documented == LAYERS:
            return
        if doc_text is None:
            message = (
                f"layering contract has no documented copy: {_DOC_FILE} "
                "is missing (LAY001 enforces the table it should carry)"
            )
        else:
            drift = sorted(
                set(documented.items()) ^ set(LAYERS.items())
            )
            message = (
                f"layering table in {_DOC_FILE} disagrees with the "
                f"enforced contract (drifted entries: "
                f"{', '.join(f'{name}={layer}' for name, layer in drift)}); "
                "update the doc table or the LAY001 layer map together"
            )
        yield self.finding(root_init.parsed, root_init.parsed.tree, message)

    def _check_edges(self, program: ProgramModel, is_real_tree: bool):
        for name in sorted(program.modules):
            info = program.modules[name]
            source_top = _top_level(info.name)
            if source_top is None:
                continue
            source_layer = LAYERS.get(source_top)
            if source_layer is None:
                if is_real_tree:
                    yield self.finding(
                        info.parsed,
                        info.parsed.tree,
                        f"package 'repro.{source_top}' is not in the "
                        f"layering contract: add it to the LAY001 layer "
                        f"map and the table in {_DOC_FILE}",
                    )
                continue
            for target, edge in program.internal_edges(info):
                target_top = _top_level(target.name)
                if target_top is None or target_top == source_top:
                    continue
                if source_top == "analysis":
                    yield self._edge_finding(
                        info, edge, source_top, target_top,
                        "repro.analysis must not import the packages it "
                        "lints",
                    )
                    continue
                target_layer = LAYERS.get(target_top)
                if target_layer is None:
                    continue  # reported once at the unlisted package itself
                if target_layer > source_layer:
                    yield self._edge_finding(
                        info, edge, source_top, target_top,
                        f"layer {source_layer} must not import layer "
                        f"{target_layer}",
                    )

    def _check_cycles(self, program: ProgramModel):
        for cycle in program.import_cycles():
            members = [m for m in cycle if m in program.modules]
            if not members:
                continue
            anchor = program.modules[cycle[0]]
            loop = " -> ".join(cycle + [cycle[0]])
            yield self.finding(
                anchor.parsed,
                anchor.parsed.tree,
                f"load-time import cycle {loop}: break it by moving the "
                "shared code down a layer or using a function-scope lazy "
                "import at the cycle's least-hot edge",
            )

    def _edge_finding(self, info, edge, source_top, target_top, detail):
        finding = info.parsed.finding(
            _Anchor(edge.line),
            self.code,
            f"upward import: repro.{source_top} -> repro.{target_top} "
            f"({detail}; contract: {_DOC_FILE})",
            self.severity,
        )
        return finding


class _Anchor:
    """Minimal node stand-in carrying a line for finding construction."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.col_offset = 0
