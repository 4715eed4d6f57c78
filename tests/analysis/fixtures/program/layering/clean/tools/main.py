"""The program's entry point."""

from repro.sim.engine import tick

print(tick())
