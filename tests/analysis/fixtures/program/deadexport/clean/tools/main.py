"""The program's entry point."""

from repro.app import run

print(run())
