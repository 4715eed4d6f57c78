"""Package surface promising one export nobody references and one only a
test references."""

from repro.util.impl import tested, unused, used

__all__ = ["used", "unused", "tested"]
