"""Test callers do not keep code alive."""

from repro.oracle import reference_sum
from repro.util import tested


def test_tested():
    assert tested() == reference_sum([1, 2])
