"""Repository benchmark: four workloads timed from outside the library.

``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1``
runs one workload in fresh subprocesses and prints every metric named in
``BENCHMARK.json``; see ``perfbench/README.md``.
"""
