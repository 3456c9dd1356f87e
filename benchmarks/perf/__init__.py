"""Host-time benchmark of the simulator (see README.md in this directory).

Run from the repository root as ``python3 benchmarks/perf/__main__.py`` or
``PYTHONPATH=src python -m benchmarks.perf``.
"""
