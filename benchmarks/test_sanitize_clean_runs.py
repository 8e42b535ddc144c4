"""Clean WC and PageRank runs under both runtime sanitizers.

Deca mode, ``cold_tier="mmap"``, on the sim and mp backends, with the
provenance ledger and the vector-clock checker on: every cell must record
zero violations.  The cells, gate, table and JSON shape are the
``sanitize`` row of :data:`repro.bench.experiments.EXPERIMENTS` — this
file only reruns it and rewrites ``sanitize_clean_runs.txt`` /
``BENCH_sanitize_clean_runs.json``.  The mp cells' counters are protocol
counts (forks, joins, attaches, frees), identical from run to run.
"""

from repro.bench.experiments import SANITIZE, run_experiment


def test_sanitize_clean_runs():
    """Both sanitizers ran on every cell and stayed silent."""
    assert not run_experiment(SANITIZE, check=True, commit=True)
