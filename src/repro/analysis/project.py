"""Whole-program model: the repo-wide import graph and symbol tables.

This module builds the view the cross-module rule family (LAY001,
SEED001, PRC001, DEAD001) needs: every lintable module parsed once,
import edges resolved to *internal* modules (including relative
imports and ``import x as y`` aliasing), per-module symbol tables, and
``from x import y`` re-export chains followed to their defining module.
The engine's per-file pass reuses the same parses: each selected file's
:class:`~repro.analysis.engine.ParsedModule` comes from
:attr:`ProgramModel.by_path`, so no file is parsed twice in one run.

The model is deterministic by construction -- modules and edges are
sorted, and :meth:`ProgramModel.graph_document` emits the canonical
``duetlint-graph/1`` JSON document CI uploads as an artifact -- so a
cold lint run and a warm (cached) one agree byte-for-byte.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import ParsedModule, Project, discover_files

__all__ = [
    "GRAPH_SCHEMA",
    "PROGRAM_ROOTS",
    "ImportEdge",
    "ModuleInfo",
    "ProgramModel",
    "module_name_for",
]

#: Schema tag of the import-graph JSON document.
GRAPH_SCHEMA = "duetlint-graph/1"

#: Roots the program model always covers (when present), regardless of
#: which paths were selected for linting -- cross-module rules need the
#: whole tree, and DEAD001 counts references from tests and examples.
PROGRAM_ROOTS = ("src", "tools", "tests", "benchmarks", "examples")


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative ``*.py`` path.

    ``src/`` is the import root (``src/repro/sim/batching.py`` ->
    ``repro.sim.batching``, packages drop ``__init__``); files outside
    ``src/`` get stable pseudo-names from their path
    (``tools/lint_changed.py`` -> ``tools.lint_changed``) so scripts and
    tests participate in the graph without colliding with real imports.
    """
    parts = list(Path(relpath).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, annotated with the context rules care about.

    Attributes:
        target: dotted module path, relative imports already resolved
            (``from .helpers import x`` inside ``repro.analysis.rules``
            targets ``repro.analysis.rules.helpers`` or the package
            itself, per Python semantics).
        names: names brought in by ``from target import ...`` (empty for
            a plain ``import target``; ``("*",)`` for a star import).
        aliases: the ``as`` name for each entry of ``names`` (None when
            imported under its own name); same length as ``names``.
        line: 1-based line of the import statement.
        type_checking: True inside an ``if TYPE_CHECKING:`` block --
            exempt from layering (no runtime edge).
        function_scope: True for imports inside a function body -- a
            lazy *runtime* edge, which still counts for layering.
    """

    target: str
    names: tuple[str, ...] = ()
    aliases: tuple[str | None, ...] = ()
    line: int = 1
    type_checking: bool = False
    function_scope: bool = False


class _ImportCollector(ast.NodeVisitor):
    """Walk one module collecting :class:`ImportEdge` objects."""

    def __init__(self, module_name: str, is_package: bool):
        self.module_name = module_name
        self.is_package = is_package
        self.edges: list[ImportEdge] = []
        self._function_depth = 0
        self._type_checking_depth = 0

    # -- context tracking --------------------------------------------------

    def _is_type_checking_test(self, test: ast.AST) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- imports -----------------------------------------------------------

    def _edge(
        self,
        target: str,
        names: tuple[str, ...],
        aliases: tuple[str | None, ...],
        line: int,
    ) -> None:
        self.edges.append(
            ImportEdge(
                target=target,
                names=names,
                aliases=aliases,
                line=line,
                type_checking=self._type_checking_depth > 0,
                function_scope=self._function_depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._edge(alias.name, (), (), node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve_from(node)
        if target is None:
            return
        names = tuple(alias.name for alias in node.names)
        aliases = tuple(alias.asname for alias in node.names)
        self._edge(target, names, aliases, node.lineno)

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or None
        anchor = self.module_name.split(".")
        if not self.is_package:
            anchor = anchor[:-1]
        drop = node.level - 1
        if drop > len(anchor):
            return None  # relative import escaping the tree; nothing to resolve
        if drop:
            anchor = anchor[:-drop]
        if node.module:
            anchor = anchor + node.module.split(".")
        return ".".join(anchor) or None


class _SymbolCollector:
    """Top-level symbol table of one module: name -> (kind, line)."""

    def __init__(self, tree: ast.Module):
        self.symbols: dict[str, tuple[str, int]] = {}
        self.explicit_all: tuple[str, ...] | None = None
        self.all_line: int = 1
        for node in tree.body:
            self._collect(node)

    def _collect(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.symbols[node.name] = ("function", node.lineno)
        elif isinstance(node, ast.ClassDef):
            self.symbols[node.name] = ("class", node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._assign(target.id, node)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                self._assign(node.target.id, node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.symbols[local] = ("import", node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.symbols[local] = ("import", node.lineno)
        elif isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._collect(child)

    def _assign(self, name: str, node: ast.stmt) -> None:
        if name == "__all__":
            value = getattr(node, "value", None)
            names = _string_list(value)
            if names is not None:
                self.explicit_all = tuple(names)
                self.all_line = node.lineno
            return
        self.symbols[name] = ("assign", node.lineno)


def _string_list(node: ast.AST | None) -> list[str] | None:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


@dataclass
class ModuleInfo:
    """One module in the program model.

    Attributes:
        relpath: slash-separated path relative to the repo root.
        name: dotted module name (see :func:`module_name_for`).
        is_package: True for ``__init__.py`` files.
        parsed: the shared :class:`ParsedModule` (AST, lines, imports).
        edges: every import statement as an :class:`ImportEdge`.
        symbols: top-level name -> ``(kind, line)`` with kind one of
            ``function`` / ``class`` / ``assign`` / ``import``.
        explicit_all: the ``__all__`` tuple when declared, else None.
        all_line: line of the ``__all__`` assignment (1 when absent).
    """

    relpath: str
    name: str
    is_package: bool
    parsed: ParsedModule
    edges: list[ImportEdge] = field(default_factory=list)
    symbols: dict[str, tuple[str, int]] = field(default_factory=dict)
    explicit_all: tuple[str, ...] | None = None
    all_line: int = 1

    @property
    def package(self) -> str:
        """Containing package (``repro.sim`` for ``repro.sim.batching``)."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]

    def import_origin(self, local: str) -> tuple[str, str] | None:
        """``(target_module, original_name)`` for a from-imported local name.

        Resolves ``from x import y as z`` (query ``z``) to ``("x", "y")``,
        with relative imports already absolutized.  Returns None when
        ``local`` is not bound by a from-import in this module.
        """
        for edge in self.edges:
            for name, alias in zip(edge.names, edge.aliases):
                if (alias or name) == local:
                    return edge.target, name
        return None


class ProgramModel:
    """The whole-program view: all modules, import graph, symbol lookup.

    Build one with :meth:`build`; it parses every lintable file under
    :data:`PROGRAM_ROOTS` once (files that fail to parse are skipped
    here -- the per-file pass reports them as ``parse-error`` findings).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "ProgramModel":
        """Parse every module under the program roots of ``project``."""
        model = cls(project.root)
        roots = [r for r in PROGRAM_ROOTS if (project.root / r).is_dir()]
        if not roots:  # fixture trees may hold a bare src/-less layout
            roots = None
        for relpath in discover_files(project.root, roots):
            source = project.read_text(relpath)
            if source is None:
                continue
            try:
                parsed = ParsedModule.parse(relpath, source)
            except SyntaxError:
                continue
            model.add_module(relpath, parsed)
        return model

    def add_module(self, relpath: str, parsed: ParsedModule) -> ModuleInfo:
        """Register one parsed file; returns its :class:`ModuleInfo`."""
        name = module_name_for(relpath)
        is_package = Path(relpath).stem == "__init__"
        collector = _ImportCollector(name, is_package)
        collector.visit(parsed.tree)
        table = _SymbolCollector(parsed.tree)
        info = ModuleInfo(
            relpath=relpath,
            name=name,
            is_package=is_package,
            parsed=parsed,
            edges=collector.edges,
            symbols=table.symbols,
            explicit_all=table.explicit_all,
            all_line=table.all_line,
        )
        self.modules[name] = info
        self.by_path[relpath] = info
        return info

    # -- lookups -----------------------------------------------------------

    def internal_target(self, edge: ImportEdge) -> ModuleInfo | None:
        """The internal module an edge lands on, if any.

        A ``from pkg import name`` edge lands on ``pkg.name`` when that
        is itself a module (submodule import), else on ``pkg``.
        """
        if len(edge.names) == 1 and edge.names[0] != "*":
            sub = self.modules.get(f"{edge.target}.{edge.names[0]}")
            if sub is not None:
                return sub
        return self.modules.get(edge.target)

    def internal_edges(
        self,
        info: ModuleInfo,
        include_type_checking: bool = False,
        include_function_scope: bool = True,
    ) -> list[tuple[ModuleInfo, ImportEdge]]:
        """Edges of ``info`` that land on modules inside this program.

        ``TYPE_CHECKING``-guarded imports are excluded by default: they
        are erased at runtime and exempt from the layering contract.
        Function-scope lazy imports are *included* by default -- they are
        real runtime dependencies -- but cycle detection excludes them
        (see :meth:`import_cycles`).
        """
        out = []
        for edge in info.edges:
            if edge.type_checking and not include_type_checking:
                continue
            if edge.function_scope and not include_function_scope:
                continue
            target = self.internal_target(edge)
            if target is not None and target.name != info.name:
                out.append((target, edge))
        return out

    def resolve_export(
        self, module: str, name: str, _seen: frozenset = frozenset()
    ) -> tuple[str, str] | None:
        """Follow re-export chains to ``name``'s defining module.

        ``resolve_export("repro.serving", "BatchExecutor")`` follows the
        package's ``from repro.sim.batching import BatchExecutor`` to
        ``("repro.sim.batching", "BatchExecutor")``.  Returns
        ``(module, name)`` of the definition site, ``(module, name)`` of
        the last internal hop when the chain leaves the program, or None
        when the name cannot be found at all.
        """
        info = self.modules.get(module)
        if info is None or (module, name) in _seen:
            return None
        if name in info.symbols and info.symbols[name][0] != "import":
            return module, name
        origin = info.import_origin(name)
        if origin is not None:
            target, original = origin
            if f"{target}.{original}" in self.modules:
                return f"{target}.{original}", original  # submodule re-export
            if target in self.modules:
                resolved = self.resolve_export(
                    target, original, _seen | {(module, name)}
                )
                return resolved if resolved is not None else (target, original)
            return None  # external origin
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}", name
        if name in info.symbols:
            return module, name  # plain `import x` binding
        return None

    # -- graph algorithms --------------------------------------------------

    def dependents_closure(self, relpaths: list[str]) -> list[str]:
        """All modules that (transitively) import any of ``relpaths``.

        The result includes the seed paths themselves (when they are
        modules of this program), is sorted, and counts every edge kind
        -- lazy and ``TYPE_CHECKING`` imports still make the importer's
        behavior depend on the target.  A changed ``__init__.py`` also
        pulls in everything importing any module of its package, since
        re-export surgery changes what ``from pkg import x`` means.
        """
        reverse: dict[str, set[str]] = {}
        for info in self.modules.values():
            for edge in info.edges:
                target = self.internal_target(edge)
                if target is None:
                    continue
                reverse.setdefault(target.name, set()).add(info.name)
                if target.is_package:
                    continue
                # `from a.b import name` also depends on package a.b's
                # __init__ having exported/namespaced it
                package = self.modules.get(target.package)
                if package is not None:
                    reverse.setdefault(package.name, set()).add(info.name)
        frontier = [
            self.by_path[p].name for p in relpaths if p in self.by_path
        ]
        seen = set(frontier)
        while frontier:
            current = frontier.pop()
            for dependent in reverse.get(current, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    frontier.append(dependent)
        return sorted(self.modules[name].relpath for name in seen)

    def import_cycles(self) -> list[list[str]]:
        """Module-name cycles over runtime import edges, sorted.

        Each cycle is reported once, rotated to start at its smallest
        member.  Only module-scope runtime edges participate:
        ``TYPE_CHECKING`` edges are erased at runtime, and a
        function-scope lazy import is the repo's sanctioned way of
        *breaking* a load-time cycle -- the layering direction of lazy
        edges is still policed by LAY001's upward-import check.
        """
        graph = {
            info.name: sorted(
                {
                    t.name
                    for t, _ in self.internal_edges(
                        info, include_function_scope=False
                    )
                }
            )
            for info in self.modules.values()
        }
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        cycles: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # iterative Tarjan: (node, iterator-position) work stack
            work = [(node, 0)]
            while work:
                current, pos = work.pop()
                if pos == 0:
                    index[current] = lowlink[current] = counter[0]
                    counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                advanced = False
                for i in range(pos, len(graph[current])):
                    succ = graph[current][i]
                    if succ not in index:
                        work.append((current, i + 1))
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[current] = min(lowlink[current], index[succ])
                if advanced:
                    continue
                if lowlink[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        smallest = min(component)
                        at = component.index(smallest)
                        cycles.append(component[at:] + component[:at])
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])

        for name in sorted(graph):
            if name not in index:
                strongconnect(name)
        return sorted(cycles)

    # -- serialization -----------------------------------------------------

    def graph_document(self) -> dict:
        """The canonical ``duetlint-graph/1`` JSON document.

        Deterministic: modules sorted by name, edges in source order,
        no wall-clock or machine-dependent fields.
        """
        modules = []
        for name in sorted(self.modules):
            info = self.modules[name]
            modules.append(
                {
                    "name": name,
                    "path": info.relpath,
                    "package": info.is_package,
                    "imports": [
                        {
                            "target": edge.target,
                            "names": list(edge.names),
                            "line": edge.line,
                            "internal": self.internal_target(edge) is not None,
                            "type_checking": edge.type_checking,
                            "function_scope": edge.function_scope,
                        }
                        for edge in info.edges
                    ],
                }
            )
        return {
            "schema": GRAPH_SCHEMA,
            "module_count": len(modules),
            "modules": modules,
        }
