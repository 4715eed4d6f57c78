"""Shared fixtures for the duetlint tests.

The ``fixtures/`` directory holds two miniature project trees --
``violations/`` (one deliberate finding per rule) and ``clean/`` (the
compliant idiom for the same code) -- that the tests lint with the
engine pointed at the fixture root.  They are data, not code: keep
pytest from collecting (and importing!) the deliberately broken files.
"""

from pathlib import Path

import pytest

from repro.analysis.incremental import CACHE_DIR_ENV

collect_ignore = ["fixtures"]

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def violations_root() -> Path:
    return FIXTURES / "violations"


@pytest.fixture
def clean_root() -> Path:
    return FIXTURES / "clean"


@pytest.fixture(autouse=True)
def _cache_outside_the_checkout(monkeypatch, tmp_path):
    """Point the lint cache at the test's scratch directory.

    A cached lint of a committed fixture tree (or the live repo) would
    otherwise write ``.duet-cache/`` into the source tree.
    """
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / ".duet-cache"))
