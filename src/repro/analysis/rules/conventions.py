"""Convention rules: CLI001 (exit/stderr discipline), EXC001 (no
swallowed exceptions), SCH001 (schema strings declared and validated).

These encode the repo-wide conventions documented in ``docs/linting.md``:
CLI commands report usage errors as ``error: <msg>`` on stderr with exit
status 2 (via ``CliError``), never ad-hoc ``sys.exit("...")`` or
``print``; exceptions are never silently swallowed in library code; and
every versioned JSON document declares its ``name/major`` schema as a
named constant and validates it at the read/write boundary
(:mod:`repro.analysis.schema`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register, resolve_target
from repro.analysis.schema import SCHEMA_PATTERN


@register
class CliConventionRule(Rule):
    """CLI001: CLI modules use CliError / the err stream, not print/exit."""

    code = "CLI001"
    title = "CLI modules use the shared exit/stderr helpers"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and relpath.endswith("/cli.py")

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(module, node.func)
            if target == "print":
                yield self.finding(
                    module,
                    node,
                    "print() in a CLI module: write tables to the injected "
                    "'out' stream and errors to 'err' (print bypasses both "
                    "and breaks output-capture tests)",
                )
            elif target in {"sys.exit", "exit", "SystemExit"}:
                args = node.args
                if args and isinstance(args[0], (ast.JoinedStr, ast.Constant)):
                    arg = args[0]
                    if isinstance(arg, ast.JoinedStr) or isinstance(
                        arg.value, str
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{target}(<message>) prints to stderr with exit "
                            "status 1: raise CliError(...) instead so usage "
                            "errors exit 2 with the 'error: ...' format",
                        )


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body only passes/continues."""
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(t, ast.Name) and t.id in {"Exception", "BaseException"}
        for t in types
    )


@register
class ExceptionSwallowRule(Rule):
    """EXC001: no bare ``except:`` or ``except Exception: pass``."""

    code = "EXC001"
    title = "no bare except / swallowed broad exceptions"

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too: "
                    "name the exception types you can actually handle",
                )
            elif _catches_everything(node) and _swallows(node):
                yield self.finding(
                    module,
                    node,
                    "'except Exception: pass' silently swallows every error: "
                    "narrow the type, handle it, or let it propagate",
                )


@register
class SchemaStringRule(Rule):
    """SCH001: schema strings are named constants, validated at the edges."""

    code = "SCH001"
    title = "versioned documents declare and validate name/major schemas"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        declares_schema_const = False
        # (b) module-level *_SCHEMA constants must match name/major.
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Name) and target.id.endswith("SCHEMA")):
                    continue
                declares_schema_const = True
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, str
                ):
                    if not SCHEMA_PATTERN.match(node.value.value):
                        yield self.finding(
                            module,
                            node,
                            f"schema constant {target.id} = "
                            f"{node.value.value!r} does not match the "
                            "'name/major' convention (e.g. 'duet-bench/1')",
                        )
        # (a) inline "schema": "..." literals must reference a constant.
        for node in module.nodes:
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "schema"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    yield self.finding(
                        module,
                        value,
                        f"inline schema string {value.value!r}: declare it as "
                        "a module-level *_SCHEMA constant so writers and "
                        "readers share (and bump) one definition",
                    )
        # (c) a module that declares a schema and serialises/parses JSON
        # must validate the document against the schema helper.
        if declares_schema_const:
            uses_json = calls_validate = False
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_target(module, node.func) or ""
                last = target.rsplit(".", 1)[-1]
                if target.startswith("json.") and last in {
                    "load",
                    "loads",
                    "dump",
                    "dumps",
                }:
                    uses_json = True
                if last == "validate_schema":
                    calls_validate = True
            if uses_json and not calls_validate:
                yield self.finding(
                    module,
                    module.tree.body[0] if module.tree.body else module.tree,
                    "this module declares a *_SCHEMA constant and reads/writes "
                    "JSON but never calls repro.analysis.schema."
                    "validate_schema: validate documents at the read/write "
                    "boundary",
                )
