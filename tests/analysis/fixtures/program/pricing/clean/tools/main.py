"""The program's entry point."""

from repro.serving.pool import serve

print(serve([1]))
