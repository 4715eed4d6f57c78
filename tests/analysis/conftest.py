"""Shared fixtures for the duetlint tests.

The ``fixtures/`` directory holds two miniature project trees --
``violations/`` (one deliberate finding per rule) and ``clean/`` (the
compliant idiom for the same code) -- that the tests lint with the
engine pointed at the fixture root.  They are data, not code: keep
pytest from collecting (and importing!) the deliberately broken files.
"""

from pathlib import Path

import pytest

collect_ignore = ["fixtures"]

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def violations_root() -> Path:
    return FIXTURES / "violations"


@pytest.fixture
def clean_root() -> Path:
    return FIXTURES / "clean"

