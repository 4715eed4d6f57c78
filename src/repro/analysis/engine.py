"""The duetlint engine: file discovery, parsing, rule running, filtering.

The engine walks the lint roots (``src/`` and ``tools/`` by default),
builds the :class:`~repro.analysis.project.ProgramModel` of the
shipping tree -- which parses and walks every file once -- and hands
each selected file's :class:`ParsedModule` to the registered per-file
rules that claim it.  The whole-program rules
(:class:`~repro.analysis.rules.ProjectRule`) then run once over the
same model.  Raw findings from both passes are filtered through inline
suppressions and the committed baseline last.  Rules are pure
functions of their inputs -- all repo-wide context (the test sources
PAR001 and PRC001 search) goes through the :class:`Project` so the
whole engine can be pointed at a fixture tree in tests.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = [
    "Project",
    "ParsedModule",
    "ModuleImports",
    "LintResult",
    "discover_files",
    "iter_suppressions",
    "run_lint",
]

#: Directories scanned when no explicit paths are given, relative to root.
DEFAULT_ROOTS = ("src", "tools")

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "node_modules"}

_SUPPRESS = re.compile(r"#\s*duetlint:\s*(disable|disable-file)=([A-Za-z0-9_,\s]+)")


class Project:
    """Read-only view of the tree being linted, with cached file reads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._text_cache: dict[str, str | None] = {}

    def read_text(self, relpath: str) -> str | None:
        """Contents of ``relpath`` (slash-separated), or None if absent."""
        if relpath not in self._text_cache:
            path = self.root / relpath
            try:
                self._text_cache[relpath] = path.read_text()
            except OSError:
                self._text_cache[relpath] = None
        return self._text_cache[relpath]

    def exists(self, relpath: str) -> bool:
        """Whether ``relpath`` exists under the project root."""
        return (self.root / relpath).exists()


class ModuleImports(ast.NodeVisitor):
    """Import bookkeeping a rule needs to resolve dotted call targets.

    Attributes:
        module_aliases: local name -> imported module path, e.g.
            ``{"np": "numpy", "nprand": "numpy.random"}``.
        imported_names: local name -> ``module.attr`` origin for
            ``from module import attr [as name]``.
    """

    def __init__(self):
        self.module_aliases: dict[str, str] = {}
        self.imported_names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.module_aliases[alias.asname] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.imported_names[alias.asname or alias.name] = f"{module}.{alias.name}"


@dataclass
class ParsedModule:
    """One parsed source file plus the lookups rules share.

    Attributes:
        relpath: slash-separated path relative to the lint root.
        source: raw file contents.
        tree: parsed :mod:`ast` module node.
        lines: ``source.splitlines()``.
        nodes: every node of ``tree`` in :func:`ast.walk` order, walked
            once at parse time and shared by every rule.
        imports: the module's :class:`ModuleImports`.
    """

    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    nodes: list[ast.AST] = field(default_factory=list)
    imports: ModuleImports = field(default_factory=ModuleImports)

    @classmethod
    def parse(cls, relpath: str, source: str) -> "ParsedModule":
        tree = ast.parse(source)
        module = cls(relpath=relpath, source=source, tree=tree)
        module.lines = source.splitlines()
        module.nodes = list(ast.walk(tree))
        module.imports.visit(tree)
        return module

    def line_text(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self, node: ast.AST, rule: str, message: str, severity: str = "error"
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=self.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            severity=severity,
            line_text=self.line_text(line),
        )


def iter_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Parse ``# duetlint: disable=...`` directives out of ``source``.

    Returns:
        ``(per_line, whole_file)`` where ``per_line`` maps a 1-based line
        number to the rule codes disabled on that line, and
        ``whole_file`` is the set of codes disabled for the entire file.
        The pseudo-code ``all`` disables every rule.
    """
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS.search(line)
        if match is None:
            continue
        codes = {c.strip() for c in match.group(2).split(",") if c.strip()}
        if match.group(1) == "disable-file":
            whole_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, whole_file


def _suppressed(finding: Finding, per_line: dict[int, set[str]], whole: set[str]):
    if "all" in whole or finding.rule in whole:
        return True
    codes = per_line.get(finding.line, ())
    return "all" in codes or finding.rule in codes


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` invocation.

    Attributes:
        findings: surviving findings, sorted by path then line.
        suppressed: count removed by inline suppressions.
        baselined: count removed by the baseline file.
        files_scanned: number of files parsed and checked.
        program: the built :class:`~repro.analysis.project.ProgramModel`,
            for ``--graph-output``; never serialized.
    """

    findings: list[Finding]
    suppressed: int = 0
    baselined: int = 0
    files_scanned: int = 0
    program: object | None = None

    @property
    def errors(self) -> list[Finding]:
        """Findings with ``error`` severity (these fail the run)."""
        return [f for f in self.findings if f.severity == "error"]

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean, 1 when findings fail the run.

        ``strict`` promotes warnings to failures.
        """
        failing = self.findings if strict else self.errors
        return 1 if failing else 0


def discover_files(root: Path, paths: list[str] | None = None) -> list[str]:
    """Python files to lint, slash-separated and relative to ``root``.

    Args:
        root: the lint root (normally the repo root).
        paths: explicit files/directories (relative to ``root`` or
            absolute); defaults to :data:`DEFAULT_ROOTS`.

    Raises:
        ValueError: if an explicit path does not exist.
    """
    root = Path(root)
    targets = []
    if paths:
        for raw in paths:
            path = Path(raw)
            if not path.is_absolute():
                path = root / path
            if not path.exists():
                raise ValueError(f"no such file or directory: {raw}")
            targets.append(path)
    else:
        targets = [root / d for d in DEFAULT_ROOTS if (root / d).is_dir()]
    found: set[str] = set()
    for target in targets:
        if target.is_file():
            if target.suffix == ".py":
                found.add(target.resolve().relative_to(root.resolve()).as_posix())
            continue
        for path in target.rglob("*.py"):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            found.add(path.resolve().relative_to(root.resolve()).as_posix())
    return sorted(found)


def _check_file(
    project: Project,
    relpath: str,
    source: str,
    rules: list,
    module: ParsedModule | None = None,
) -> list[Finding]:
    """Raw findings of the per-file rules on one source file.

    Pre-suppression, pre-baseline.  ``module`` is the program model's parse
    of the file; without one (a file outside the program roots, or one
    that failed to parse there) the file is parsed here, and an
    unparseable file produces a single ``parse-error`` finding.
    """
    if module is None:
        try:
            module = ParsedModule.parse(relpath, source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="parse-error",
                    message=f"could not parse file: {exc.msg}",
                    severity="error",
                    line_text=(exc.text or "").rstrip("\n"),
                )
            ]
    findings: list[Finding] = []
    for rule in rules:
        if rule.applies_to(relpath):
            findings.extend(rule.check(module, project))
    return findings


def run_lint(
    root: str | Path,
    paths: list[str] | None = None,
    rules: list | None = None,
    baseline_fingerprints: set[str] | None = None,
) -> LintResult:
    """Lint ``paths`` under ``root`` with ``rules``.

    Args:
        root: lint root directory; rule scopes and the baseline are
            interpreted relative to it.
        paths: explicit file/directory selection (default: ``src`` and
            ``tools`` under ``root``).  Whole-program rules always see
            the full tree; their findings are filtered to the selection.
        rules: rule instances to run (default: every registered rule --
            resolved lazily to avoid an import cycle with
            :mod:`repro.analysis.rules`).
        baseline_fingerprints: fingerprints of grandfathered findings to
            filter out.

    Returns:
        A :class:`LintResult`.  Unparseable files produce a single
        ``parse-error`` finding rather than aborting the run.
    """
    from repro.analysis.project import ProgramModel
    from repro.analysis.rules import ProjectRule

    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    project = Project(root)
    baseline_fingerprints = baseline_fingerprints or set()
    selected = discover_files(project.root, paths)
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    program = ProgramModel.build(project)

    # per-file pass over the program model's parses
    raw: list[Finding] = []
    scanned = 0
    for relpath in selected:
        source = project.read_text(relpath)
        if source is None:
            continue
        scanned += 1
        info = program.by_path.get(relpath)
        module = info.parsed if info is not None else None
        raw.extend(_check_file(project, relpath, source, file_rules, module))

    # whole-program pass
    selected_set = set(selected)
    for rule in project_rules:
        raw.extend(
            f for f in rule.check_program(program, project) if f.path in selected_set
        )

    # filtering: suppressions, then baseline
    findings: list[Finding] = []
    suppressed = baselined = 0
    suppression_cache: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    for finding in raw:
        if finding.path not in suppression_cache:
            source = project.read_text(finding.path)
            suppression_cache[finding.path] = (
                iter_suppressions(source) if source is not None else ({}, set())
            )
        per_line, whole_file = suppression_cache[finding.path]
        if _suppressed(finding, per_line, whole_file):
            suppressed += 1
        elif finding.fingerprint in baseline_fingerprints:
            baselined += 1
        else:
            findings.append(finding)
    findings.sort()
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        baselined=baselined,
        files_scanned=scanned,
        program=program,
    )
