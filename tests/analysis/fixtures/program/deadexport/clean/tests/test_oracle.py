"""The oracle's only caller is a test."""

from repro.oracle import reference_sum


def test_reference_sum():
    assert reference_sum([1, 2]) == 3
