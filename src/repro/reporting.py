"""Percentage rendering shared by the CLI and the serving SLO reports."""

from __future__ import annotations

__all__ = ["format_percent"]


def format_percent(value: float, precision: int = 1) -> str:
    """Render a fraction as a percentage (``0.034`` -> ``'3.4%'``)."""
    return f"{100.0 * value:.{precision}f}%"
