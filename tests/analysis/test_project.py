"""Units for the whole-program model: naming, aliases, re-exports,
dependents, cycles, and the deterministic graph document.

Every test builds a tiny throwaway tree under ``tmp_path`` so the
assertions pin the *semantics* of ``repro.analysis.project`` without
coupling to the live repository's import graph.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import Project
from repro.analysis.project import (
    GRAPH_SCHEMA,
    ProgramModel,
    module_name_for,
)


def build_tree(root: Path, files: dict[str, str]) -> ProgramModel:
    for relpath, body in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return ProgramModel.build(Project(root))


class TestModuleNaming:
    @pytest.mark.parametrize(
        ("relpath", "expected"),
        [
            ("src/repro/sim/batching.py", "repro.sim.batching"),
            ("src/repro/sim/__init__.py", "repro.sim"),
            ("src/repro/__init__.py", "repro"),
            ("tools/lint_changed.py", "tools.lint_changed"),
        ],
    )
    def test_module_name_for(self, relpath, expected):
        assert module_name_for(relpath) == expected

    def test_build_indexes_by_name_and_path(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/a.py": "import repro.b\n",
            "src/repro/b.py": "",
        })
        assert set(program.modules) == {"repro", "repro.a", "repro.b"}
        assert program.by_path["src/repro/a.py"] is program.modules["repro.a"]
        assert program.modules["repro.a"].package == "repro"
        assert program.modules["repro"].package == "repro"

    def test_tests_directory_is_not_modelled(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/a.py": "def thing():\n    return 1\n",
            "tests/test_a.py": "from repro.a import thing\n",
            "tools/main.py": "from repro.a import thing\n",
        })
        assert set(program.modules) == {"repro.a", "tools.main"}
        names = [m["name"] for m in program.graph_document()["modules"]]
        assert names == ["repro.a", "tools.main"]


class TestAliasResolution:
    def test_import_origin_resolves_as_aliases(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/helpers.py": "def fresh():\n    return 1\n",
            "src/repro/runner.py": (
                "from repro.helpers import fresh as make_rng\n"
            ),
        })
        runner = program.modules["repro.runner"]
        assert runner.import_origin("make_rng") == ("repro.helpers", "fresh")
        assert runner.import_origin("fresh") is None
        assert runner.import_origin("unbound") is None

    def test_relative_imports_are_absolutized(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            "src/repro/pkg/user.py": "from .impl import thing as t\n",
        })
        user = program.modules["repro.pkg.user"]
        assert user.import_origin("t") == ("repro.pkg.impl", "thing")


class TestReExportResolution:
    def test_resolve_export_follows_the_package_hop(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.impl import thing\n"
            ),
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
        })
        assert program.resolve_export("repro.pkg", "thing") == (
            "repro.pkg.impl", "thing",
        )

    def test_resolve_export_follows_chained_reexports(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/outer/__init__.py": (
                "from repro.inner import thing\n"
            ),
            "src/repro/inner/__init__.py": (
                "from repro.inner.impl import thing\n"
            ),
            "src/repro/inner/impl.py": "def thing():\n    return 1\n",
        })
        assert program.resolve_export("repro.outer", "thing") == (
            "repro.inner.impl", "thing",
        )

    def test_resolve_export_stops_at_definitions_and_submodules(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/impl.py": "def local():\n    return 1\n",
        })
        assert program.resolve_export("repro.pkg.impl", "local") == (
            "repro.pkg.impl", "local",
        )
        # an attribute that is really a submodule resolves to the module
        assert program.resolve_export("repro.pkg", "impl") == (
            "repro.pkg.impl", "impl",
        )
        assert program.resolve_export("repro.pkg", "missing") is None


class TestDependentsClosure:
    def test_reverse_closure_walks_transitive_importers(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/a.py": "from repro.b import mid\n",
            "src/repro/b.py": "from repro.c import leaf\n\ndef mid():\n    return leaf()\n",
            "src/repro/c.py": "def leaf():\n    return 1\n",
            "src/repro/unrelated.py": "",
        })
        closure = program.dependents_closure(["src/repro/c.py"])
        assert closure == [
            "src/repro/a.py", "src/repro/b.py", "src/repro/c.py",
        ]

    def test_non_program_paths_are_dropped_not_fatal(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/a.py": "",
        })
        assert program.dependents_closure(["docs/linting.md"]) == []


class TestImportCycles:
    def test_module_scope_cycle_is_detected_once(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/x.py": "from repro import y\n",
            "src/repro/y.py": "from repro import x\n",
        })
        assert program.import_cycles() == [["repro.x", "repro.y"]]

    def test_function_scope_lazy_import_is_not_a_cycle(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/x.py": (
                "def use():\n    from repro import y\n    return y\n"
            ),
            "src/repro/y.py": "from repro import x\n",
        })
        assert program.import_cycles() == []

    def test_type_checking_import_is_not_a_cycle(self, tmp_path):
        program = build_tree(tmp_path, {
            "src/repro/x.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro import y\n"
            ),
            "src/repro/y.py": "from repro import x\n",
        })
        assert program.import_cycles() == []


class TestGraphDocument:
    def test_document_shape_and_determinism(self, tmp_path):
        files = {
            "src/repro/a.py": "from repro.b import thing\n",
            "src/repro/b.py": "def thing():\n    return 1\n",
        }
        first = build_tree(tmp_path, files).graph_document()
        second = ProgramModel.build(Project(tmp_path)).graph_document()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["schema"] == GRAPH_SCHEMA
        assert first["module_count"] == 2
        names = [m["name"] for m in first["modules"]]
        assert names == sorted(names)
        (edge,) = first["modules"][0]["imports"]
        assert edge["target"] == "repro.b"
        assert edge["internal"] is True
        assert edge["function_scope"] is False
        assert edge["type_checking"] is False
