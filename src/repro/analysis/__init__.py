"""duetlint: project-specific static analysis for the DUET reproduction.

An AST-based lint engine that mechanically enforces the invariants the
repo otherwise keeps only by convention -- seeded determinism, fast/slow
path parity, the exit-2 CLI convention, schema-versioned bench files,
exception/float-comparison hygiene, and (via the whole-program pass) the
package layering contract, RNG seed provenance, executor pricing
coverage, and dead-export pruning.  See ``docs/linting.md`` for the rule catalogue
and the suppression/baseline workflow.

Entry points:

- ``python -m repro lint`` (the CLI; exit 0 clean, 1 findings, 2 usage)
- ``python tools/duetlint.py`` (standalone console entry)
- ``python tools/lint_changed.py`` (lint changed files + their dependents)
- :func:`repro.analysis.engine.run_lint` (the library API the tests use)

This ``__init__`` deliberately re-exports nothing: every consumer --
the CLI, the tools, the tests -- imports from the defining submodule
(``engine``, ``findings``, ``rules``, ``project``, ...), which is
exactly the discipline DEAD001 enforces on the rest of the tree.
"""
