"""Ablation: row-major vs column-major SQL cache layout.

The SQL engine caches relations as Deca page groups either row-major
(each record packed contiguously) or column-major (one page run per
field, docs/sql_engine.md).  The TPC-H-flavoured suite runs under both
layouts on identical inputs, then once more from pages demoted to and
promoted back from the mmap tier.

The cells, gates (same digests, faster columnar kernels, no larger
footprint, zero-copy clean round trip), table and JSON shape are the
``sql`` row of :data:`repro.bench.experiments.EXPERIMENTS` — this file
only reruns it and rewrites ``ablation_sql.txt`` /
``BENCH_ablation_sql.json``.
"""

from repro.bench.experiments import SQL, run_experiment


def test_ablation_sql():
    """Columnar layout: same digests, faster kernels, zero-copy swaps."""
    assert not run_experiment(SQL, check=True, commit=True)
