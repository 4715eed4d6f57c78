"""REL003: recovery code must be bounded and event-clocked.

The fault-tolerance tier (``serving/``, ``reliability/``) makes two
promises the type system cannot enforce: retry/polling loops terminate
(a retry budget, not ``while True`` + hope), and waiting happens on the
simulated event clock (a wall-clock ``sleep`` would freeze a
discrete-event simulator and desynchronise real deployments from the
model).  DET001 already bans reading the wall clock; this rule bans
stalling on it, plus the unbounded recovery loop.  Seeded backoff
jitter is SEED001's job: both recovery directories are always in its
scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register, resolve_target

#: blocking wall-clock waits, banned everywhere in src/repro.
_SLEEP_CALLS = {"time.sleep", "asyncio.sleep"}

#: directories holding recovery machinery, where the loop check runs.
_RECOVERY_PREFIXES = ("src/repro/serving/", "src/repro/reliability/")


def _escapes(statements: list[ast.stmt], nested: bool) -> bool:
    """Whether a loop body can exit: a ``break`` bound to this loop, or a
    ``return``/``raise`` anywhere outside nested function definitions."""
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.Break) and not nested:
            return True
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        child_nested = nested or isinstance(
            stmt, (ast.While, ast.For, ast.AsyncFor)
        )
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if block and _escapes(block, child_nested):
                return True
        for handler in getattr(stmt, "handlers", None) or ():
            if _escapes(handler.body, child_nested):
                return True
        for case in getattr(stmt, "cases", None) or ():
            if _escapes(case.body, child_nested):
                return True
    return False


@register
class RecoveryHygieneRule(Rule):
    """REL003: bounded retries, event-clock waits."""

    code = "REL003"
    title = "recovery loops bounded, no wall-clock sleeps"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        in_recovery = module.relpath.startswith(_RECOVERY_PREFIXES)
        for node in module.nodes:
            if isinstance(node, ast.Call):
                if resolve_target(module, node.func) in _SLEEP_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock sleep ({dotted_name(node.func)}): waits "
                        "must be scheduled on the simulated event clock "
                        "(push a timed event), never block the process",
                    )
            elif (
                in_recovery
                and isinstance(node, ast.While)
                and isinstance(node.test, ast.Constant)
                and bool(node.test.value)
                and not _escapes(node.body, nested=False)
            ):
                yield self.finding(
                    module,
                    node,
                    "unbounded retry/polling loop: a constant-true 'while' "
                    "with no break/return/raise never terminates -- bound it "
                    "by the retry budget (e.g. 'while tries < "
                    "policy.max_attempts')",
                )
