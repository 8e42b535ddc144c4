"""Real-clock, layer-by-layer benchmark of the engine (see README.md).

``PYTHONPATH=src python -m benchmarks.perf --seed 1`` runs every workload;
``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace T``
is the one-workload form ``BENCHMARK.json`` names.
"""
