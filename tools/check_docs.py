#!/usr/bin/env python
"""Fail on docs drifting out of sync with the code: the one docs checker.

The docs of the tree at ``--root`` are checked against the importable
``repro`` package:

1. every subcommand of the ``repro`` parser has a ``python -m repro
   <command>`` row in ``docs/api.md``, and no row names a gone one;
2. every ``BENCH_*.json`` at the root has its filename and ``schema``
   described in ``docs/benchmarks.md``;
3. every relative link in README.md and ``docs/*.md`` resolves on disk
   (fenced code blocks are skipped);
4. every ``from repro... import`` line of a ```` ```python ```` block in
   those pages imports (nothing else of the block runs);
5. every ``DuetConfig`` field is named in ``docs/api.md``;
6. the ``docs/architecture.md`` layer table equals
   :data:`repro.analysis.rules.layering.LAYERS`;
7. every backticked ``repro.x.y`` in the prose of README.md, DESIGN.md,
   EXPERIMENTS.md and ``docs/*.md``, and every ``:func:``/``:class:``/
   ``:mod:``/``:data:``/``:meth:``/``:attr:`` role naming one under
   ``src/repro``, resolves by import plus ``getattr``.

Usage: ``python tools/check_docs.py [--root DIR]`` (defaults to the
repo root containing this script).  Follows the repo-wide exit
convention (enforced by duetlint's CLI001): 0 when the docs hold every
contract, 1 listing every gap, 2 on internal errors (a missing docs
page, an unreadable or schema-less bench file).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

_CLI_ROW = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")
# inline markdown links/images: [text](target) / ![alt](target)
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_EXTERNAL = ("http://", "https://", "mailto:")
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", flags=re.DOTALL)
# one layer-table row: ``| 4 | `sim` |`` (packages backticked, comma-separated)
_LAYER_ROW = re.compile(r"^\|\s*(\d+)\s*\|([^|]*)\|")
_DOTTED = r"repro(?:\.[A-Za-z_]\w*)+"
# a backticked span starting with a repro path: `repro.x.y` or `repro.x.y(...)`
_PROSE_PATH = re.compile(rf"`({_DOTTED})[^`]*`")
_ROLE = re.compile(rf":(func|class|mod|data|meth|attr):`~?({_DOTTED})")


def registered_commands() -> list[str]:
    """Subcommand names registered on the live ``repro`` parser."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise RuntimeError("repro parser registers no subcommands")


def documented_commands(api_md: str) -> set[str]:
    """Subcommands ``docs/api.md`` shows as ``python -m repro <cmd>``."""
    return set(_CLI_ROW.findall(api_md))


def cli_gaps(api_md: str) -> list[str]:
    """Coverage gaps between the parser and ``docs/api.md``."""
    commands = registered_commands()
    documented = documented_commands(api_md)
    gaps = [
        f"docs/api.md: no `python -m repro {name}` row for registered "
        f"subcommand {name!r}"
        for name in commands
        if name not in documented
    ]
    gaps.extend(
        f"docs/api.md: stale row `python -m repro {name}` -- no such "
        f"subcommand"
        for name in sorted(documented - set(commands))
    )
    return gaps


def bench_gaps(root: Path, benchmarks_md: str) -> list[str]:
    """Bench files at ``root`` not described in ``docs/benchmarks.md``."""
    gaps = []
    for path in sorted(root.glob("BENCH_*.json")):
        document = json.loads(path.read_text())
        schema = document.get("schema") if isinstance(document, dict) else None
        if not isinstance(schema, str):
            raise ValueError(f"{path.name} carries no schema string")
        if path.name not in benchmarks_md:
            gaps.append(f"docs/benchmarks.md: never mentions {path.name}")
        if schema not in benchmarks_md:
            gaps.append(
                f"docs/benchmarks.md: schema `{schema}` of {path.name} "
                f"is not described"
            )
    return gaps


def config_gaps(api_md: str) -> list[str]:
    """``DuetConfig`` fields that ``docs/api.md`` never names."""
    from repro.sim.config import DuetConfig

    return [
        f"docs/api.md: DuetConfig field `{field.name}` is not documented"
        for field in dataclasses.fields(DuetConfig)
        if not re.search(rf"\b{re.escape(field.name)}\b", api_md)
    ]


def doc_layer_table(architecture_md: str) -> dict[str, int]:
    """Package -> layer, as the ``docs/architecture.md`` table states it."""
    layers: dict[str, int] = {}
    for line in architecture_md.splitlines():
        match = _LAYER_ROW.match(line.strip())
        if match is None:
            continue
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", match.group(2)):
            layers[name.removeprefix("repro.")] = int(match.group(1))
    return layers


def layer_gaps(architecture_md: str) -> list[str]:
    """Entries where the doc table and the enforced layer map differ."""
    from repro.analysis.rules.layering import LAYERS

    documented = doc_layer_table(architecture_md)
    drift = sorted(set(documented.items()) ^ set(LAYERS.items()))
    if not drift:
        return []
    return [
        "docs/architecture.md: layering table disagrees with "
        "repro.analysis.rules.layering.LAYERS (drifted entries: "
        f"{', '.join(f'{name}={layer}' for name, layer in drift)})"
    ]


def _prose_lines(markdown: str):
    """``(line number, line)`` outside fenced code blocks."""
    in_fence = False
    for number, line in enumerate(markdown.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            yield number, line


def link_gaps(root: Path, page: Path) -> list[str]:
    """Relative link targets in ``page`` that do not exist on disk."""
    gaps = []
    for number, line in _prose_lines(page.read_text()):
        for target in _LINK.findall(line):
            relative = target.split("#", 1)[0]
            if target.startswith(_EXTERNAL) or not relative:
                continue
            if not (page.parent / relative).exists():
                gaps.append(
                    f"{page.relative_to(root)}:{number}: dead link -> {target}"
                )
    return gaps


def import_gaps(root: Path, page: Path) -> list[str]:
    """``from repro... import`` lines of ``page``'s python blocks that fail."""
    gaps = []
    for block in _PYTHON_BLOCK.findall(page.read_text()):
        for node in ast.walk(ast.parse(block)):
            if not (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("repro")
            ):
                continue
            statement = ast.unparse(node)
            code = compile(ast.Module([node], []), str(page), "exec")
            try:
                exec(code, {})  # noqa: S102
            except ImportError as exc:
                gaps.append(f"{page.relative_to(root)}: `{statement}` fails: {exc}")
    return gaps


def resolves(path: str) -> bool:
    """Whether dotted ``path`` names something: the longest importable
    module prefix, then ``getattr`` for each remaining part."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def prose_path_gaps(root: Path, page: Path) -> list[str]:
    """Backticked ``repro.*`` paths in ``page``'s prose that do not resolve."""
    return [
        f"{page.relative_to(root)}:{number}: `{path}` does not resolve"
        for number, line in _prose_lines(page.read_text())
        for path in _PROSE_PATH.findall(line)
        if not resolves(path)
    ]


def role_gaps(root: Path, source: Path) -> list[str]:
    """Docstring/comment roles in ``source`` naming unresolvable paths."""
    return [
        f"{source.relative_to(root)}:{number}: :{role}:`{path}` does not resolve"
        for number, line in enumerate(source.read_text().splitlines(), 1)
        for role, path in _ROLE.findall(line)
        if not resolves(path)
    ]


def check_tree(root: Path) -> list[str]:
    """All gaps between the docs of the tree rooted at ``root`` and the code."""
    docs = root / "docs"
    for name in ("api.md", "benchmarks.md", "architecture.md"):
        if not (docs / name).is_file():
            raise OSError(f"no such docs page {docs / name}")
    api_md = (docs / "api.md").read_text()
    gaps = cli_gaps(api_md)
    gaps.extend(bench_gaps(root, (docs / "benchmarks.md").read_text()))
    gaps.extend(config_gaps(api_md))
    gaps.extend(layer_gaps((docs / "architecture.md").read_text()))
    doc_pages = [root / "README.md", *sorted(docs.glob("*.md"))]
    for page in filter(Path.is_file, doc_pages):
        gaps.extend(link_gaps(root, page))
        gaps.extend(import_gaps(root, page))
    prose_pages = [*doc_pages, root / "DESIGN.md", root / "EXPERIMENTS.md"]
    for page in filter(Path.is_file, prose_pages):
        gaps.extend(prose_path_gaps(root, page))
    for source in sorted((root / "src" / "repro").rglob("*.py")):
        gaps.extend(role_gaps(root, source))
    return gaps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--root",
        type=Path,
        default=default_root,
        help="repo root to check (default: the tree containing this script)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(default_root / "src"))
    try:
        gaps = check_tree(args.root)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for gap in gaps:
        print(gap, file=sys.stderr)
    if gaps:
        print(f"{len(gaps)} docs gap(s)", file=sys.stderr)
        return 1
    print(
        "docs cover every subcommand, bench schema, link, doc import, "
        "DuetConfig field, layer and named repro path"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
