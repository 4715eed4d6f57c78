"""The ``lint`` subcommand: argument wiring and report formatting.

Used two ways: ``repro.cli`` mounts :func:`configure_parser` /
:func:`cmd_lint` as the ``python -m repro lint`` subcommand, and
``tools/duetlint.py`` exposes the same behaviour as a standalone console
entry.  Exit convention (repo-wide): 0 clean, 1 findings, 2 usage or
internal error.  Usage problems are raised as ``ValueError`` so the
shared CLI error handler prints ``error: <msg>`` on stderr and returns 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import run_lint
from repro.analysis.rules import REGISTRY, get_rules
from repro.analysis.schema import validate_schema

__all__ = ["REPORT_SCHEMA", "configure_parser", "cmd_lint", "main"]

#: schema identifier of the ``--format=json`` report document.
REPORT_SCHEMA = "duetlint/1"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Add the lint options to ``parser`` (a subparser or standalone)."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/ and tools/)",
    )
    parser.add_argument(
        "--root", default=".",
        help="lint root containing src/ (default: current directory)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        dest="output_format", help="report format on stdout",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="CODE",
        help="run only the named rule (repeatable; see --list-rules)",
    )
    parser.add_argument(
        "--baseline", default=None, choices=("update",),
        help="'update' rewrites the baseline with the current findings",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report grandfathered findings too",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the run (exit 1)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report document to PATH",
    )
    parser.add_argument(
        "--graph-output", default=None, metavar="PATH",
        help="also write the whole-program import graph "
        "(duetlint-graph/1 JSON) to PATH",
    )
    parser.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="list registered rules and exit",
    )


def _report_document(result, rules, root: str) -> dict:
    document = {
        "schema": REPORT_SCHEMA,
        "root": str(root),
        "rules": [
            {"code": r.code, "severity": r.severity, "title": r.title}
            for r in rules
        ],
        "findings": [f.as_dict() for f in result.findings],
        "counts": {
            "findings": len(result.findings),
            "errors": len(result.errors),
            "warnings": len(result.findings) - len(result.errors),
            "suppressed": result.suppressed,
            "baselined": result.baselined,
            "files_scanned": result.files_scanned,
        },
        "clean": not result.findings,
    }
    validate_schema(document, REPORT_SCHEMA)
    return document


def cmd_lint(args, out) -> int:
    """Run the lint per ``args``; returns the exit code (0/1).

    Raises:
        ValueError: on usage errors (unknown rule, bad root/paths, a
            missing ``--output``/``--graph-output`` directory,
            ``--baseline update`` with a rule or path subset) -- mapped
            to exit 2 by the caller, before any linting is done.
    """
    if args.list_rules:
        for code in sorted(REGISTRY):
            rule = REGISTRY[code]()
            out.write(f"{code}  [{rule.severity:7s}] {rule.title}\n")
        return 0
    root = Path(args.root)
    if not (root / "src").is_dir():
        raise ValueError(
            f"lint root {root} has no src/ directory (use --root to point "
            "at the repository root)"
        )
    if args.baseline == "update" and (args.rule or args.paths):
        raise ValueError(
            "--baseline update rewrites the whole baseline: run it without "
            "--rule or paths"
        )
    for flag, path in (
        ("--output", args.output),
        ("--graph-output", args.graph_output),
    ):
        if path and not Path(path).parent.is_dir():
            raise ValueError(
                f"{flag} directory does not exist: {Path(path).parent}"
            )
    rules = get_rules(args.rule)
    baseline_path = root / DEFAULT_BASELINE_NAME
    if args.baseline == "update":
        result = run_lint(root, rules=rules)
        save_baseline(baseline_path, result.findings)
        out.write(
            f"baseline updated: {len(result.findings)} finding(s) "
            f"grandfathered in {baseline_path}\n"
        )
        return 0
    fingerprints = set() if args.no_baseline else load_baseline(baseline_path)
    result = run_lint(
        root,
        paths=args.paths or None,
        rules=rules,
        baseline_fingerprints=fingerprints,
    )
    if args.graph_output:
        graph = result.program.graph_document()
        Path(args.graph_output).write_text(
            json.dumps(graph, indent=2, sort_keys=True) + "\n"
        )
    document = _report_document(result, rules, args.root)
    if args.output:
        Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    if args.output_format == "json":
        out.write(json.dumps(document, indent=2) + "\n")
    else:
        for finding in result.findings:
            out.write(finding.format() + "\n")
        counts = document["counts"]
        out.write(
            f"{counts['findings']} finding(s) "
            f"({counts['errors']} error(s), {counts['warnings']} warning(s), "
            f"{counts['suppressed']} suppressed, "
            f"{counts['baselined']} baselined) "
            f"in {counts['files_scanned']} file(s)\n"
        )
    return result.exit_code(strict=args.strict)


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """Standalone entry point used by ``tools/duetlint.py``."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="duetlint",
        description="project-specific static analysis for the DUET repro",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    try:
        return cmd_lint(args, out)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 2
