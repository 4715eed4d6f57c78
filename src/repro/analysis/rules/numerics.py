"""NUM001: no ``==``/``!=`` on floating-point values outside tests.

The fast-path/slow-path equivalence story works because integer
counters are compared exactly and float quantities go through
``allclose``-style helpers (see ``sim/functional.py``).  Exact equality
on floats in library code is almost always a latent nondeterminism bug:
it can flip with BLAS version, summation order, or fast-path batching.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register, resolve_target

#: call targets (last dotted component) whose results are floating point.
_FLOAT_RETURNING = {
    "to_float",
    "float",
    "mean",
    "std",
    "var",
    "linspace",
    "exp",
    "log",
    "log2",
    "log10",
    "sqrt",
}


def _is_floatish(module: ParsedModule, node: ast.expr) -> bool:
    """Heuristic: does ``node`` evaluate to a float (scalar or array)?

    A literal ``0.0`` is exempt: exact zero is representable, and
    ``x == 0.0`` is the established idiom for "exactly zero" sentinel
    checks (unset fractions, pruned weights, underflowed scales).  The
    hazard NUM001 targets is equality between *computed* floats.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and node.value != 0.0
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(module, node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division always yields float
        return _is_floatish(module, node.left) or _is_floatish(module, node.right)
    if isinstance(node, ast.Call):
        target = resolve_target(module, node.func)
        if target is None:
            return False
        last = target.rsplit(".", 1)[-1]
        if last in _FLOAT_RETURNING:
            return True
        if last.startswith(("float", "double")):  # float(), np.float64(), ...
            return True
        if last == "astype" and node.args:
            arg = node.args[0]
            arg_target = resolve_target(module, arg) or ""
            arg_name = (
                arg.value
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                else arg_target.rsplit(".", 1)[-1]
            )
            return isinstance(arg_name, str) and "float" in arg_name
    return False


@register
class FloatEqualityRule(Rule):
    """NUM001: float ``==``/``!=`` must go through allclose/ULP helpers."""

    code = "NUM001"
    title = "no exact equality on floats outside tests"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and "/tests/" not in relpath

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_floatish(module, operand) for operand in operands):
                yield self.finding(
                    module,
                    node,
                    "exact ==/!= on a floating-point value: use "
                    "numpy.allclose / math.isclose (or compare the integer "
                    "payloads) -- float equality flips with summation order",
                )
