"""Tests for the percentage renderer."""

from repro.reporting import format_percent


def test_format_percent():
    assert format_percent(0.034) == "3.4%"
    assert format_percent(0.5, precision=0) == "50%"
