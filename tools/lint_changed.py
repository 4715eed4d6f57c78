#!/usr/bin/env python
"""Lint only the Python files changed vs a base ref (fast local loop).

A pre-commit-style wrapper around duetlint: collects the files that
differ from ``--base`` (default ``main``) -- committed, staged, and
unstaged, including untracked files -- restricts them to the lint roots
(``src/`` and ``tools/``), and runs the full rule set on just those
files.  Whole-tree context rules (PAR001's test-file check) still read
the live tree, so findings match a full run.

With ``--dependents`` the changed set is widened to its reverse-import
closure over the whole-program graph (``repro.analysis.project``): every
module that transitively imports a changed one is re-linted too, so a
signature or re-export change surfaces findings *at the callers*, not
just in the edited file.  CI runs in this mode.

Exit convention: 0 clean (or nothing to lint), 1 findings, 2 usage or
internal error (unknown base ref, git failure).

Usage: ``python tools/lint_changed.py [--base REF] [--dependents]
[extra duetlint args]``
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.cli import main as lint_main  # noqa: E402
from repro.analysis.engine import DEFAULT_ROOTS  # noqa: E402


def changed_files(base: str) -> list[str]:
    """Paths changed vs ``base`` plus untracked files, repo-relative.

    Raises:
        RuntimeError: when git fails (bad ref, not a repository).
    """
    def git(*args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", str(_REPO_ROOT), *args],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"git {' '.join(args)} failed: {proc.stderr.strip()}"
            )
        return proc.stdout

    merge_base = git("merge-base", base, "HEAD").strip()
    listed = git("diff", "--name-only", merge_base).splitlines()
    listed += git(
        "ls-files", "--others", "--exclude-standard"
    ).splitlines()
    return sorted(set(filter(None, listed)))


def with_dependents(paths: list[str]) -> list[str]:
    """``paths`` plus every program module that transitively imports one.

    Builds the whole-program import graph once; paths outside the
    program (deleted files, non-Python) pass through untouched so the
    caller's lintable-filter still applies.
    """
    from repro.analysis.engine import Project
    from repro.analysis.project import ProgramModel

    program = ProgramModel.build(Project(_REPO_ROOT))
    return sorted(set(paths) | set(program.dependents_closure(paths)))


def lintable(paths: list[str]) -> list[str]:
    """Changed paths that duetlint would scan: ``*.py`` under the roots."""
    return [
        p
        for p in paths
        if p.endswith(".py")
        and p.split("/", 1)[0] in DEFAULT_ROOTS
        and (_REPO_ROOT / p).is_file()
    ]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    base = "main"
    if "--base" in argv:
        at = argv.index("--base")
        try:
            base = argv[at + 1]
        except IndexError:
            print("error: --base requires a ref", file=sys.stderr)
            return 2
        del argv[at : at + 2]
    dependents = "--dependents" in argv
    if dependents:
        argv.remove("--dependents")
    try:
        changed = changed_files(base)
        if dependents:
            changed = with_dependents(changed)
        files = lintable(changed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not files:
        print(f"no lintable files changed vs {base}")
        return 0
    scope = "file(s) changed (incl. dependents)" if dependents else "file(s) changed"
    print(f"linting {len(files)} {scope} vs {base}:")
    for path in files:
        print(f"  {path}")
    return lint_main(["--root", str(_REPO_ROOT), *files, *argv])


if __name__ == "__main__":
    raise SystemExit(main())
