"""One range check for every configuration dataclass.

Each config dataclass checks its numeric fields in ``__post_init__`` with
:func:`check_range`, so NaN and ±inf -- which pass any bare ``<=``
comparison -- fail at construction, and every message reads
``Class.field must be <bound>, got <value>`` (``> 0`` is "positive",
``>= 0`` is "non-negative").  Cross-field rules (orderings,
divisibility, sums) stay explicit in each ``__post_init__``.
"""

from __future__ import annotations

import math

__all__ = ["check_range", "require_range"]


def check_range(obj, *names, gt=None, ge=None, lt=None, le=None, optional=False):
    """:func:`require_range` on each named attribute of ``obj`` (on each
    element of a tuple); ``optional=True`` skips a ``None`` attribute."""
    owner = type(obj).__name__
    for name in names:
        value = getattr(obj, name)
        if value is None and optional:
            continue
        for item in value if isinstance(value, tuple) else (value,):
            require_range(f"{owner}.{name}", item, gt=gt, ge=ge, lt=lt, le=le)


def require_range(label, value, *, gt=None, ge=None, lt=None, le=None) -> None:
    """Raise ``ValueError`` naming ``label`` unless ``value`` is a finite
    number with ``value > gt``, ``value >= ge``, ``value < lt`` and
    ``value <= le`` (each bound optional)."""
    # an int is finite, and may be too large for math.isfinite
    finite = isinstance(value, int) or math.isfinite(value)
    if (
        finite
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return
    low = gt if gt is not None else ge
    high = lt if lt is not None else le
    if low is not None and high is not None:
        opening = "(" if gt is not None else "["
        closing = ")" if lt is not None else "]"
        bound = f"in {opening}{low:g}, {high:g}{closing}"
    elif low == 0:
        bound = "positive" if gt is not None else "non-negative"
    elif low is not None:
        bound = f"{'>' if gt is not None else '>='} {low:g}"
    else:
        bound = f"{'<' if lt is not None else '<='} {high:g}"
    if not finite and (low is None or high is None):
        bound = f"finite and {bound}"
    raise ValueError(f"{label} must be {bound}, got {value}")
