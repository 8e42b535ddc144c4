"""Ablation: static memory split vs the unified executor arena.

The seed engine partitions executor memory statically (Spark 1.5's
``storage_fraction`` / ``shuffle_fraction`` walls).  The unified arena
(``memory_mode="unified"``, docs/memory_model.md) lets the execution
and storage pools borrow from each other the way Spark 1.6's
``UnifiedMemoryManager`` does.  Two workloads at an equal heap — a
shuffle-heavy WordCount with tight static fractions and the cache-heavy
traced WordCount — show what the borrowing buys.

The cells, gates, table and JSON shape are the ``memory`` row of
:data:`repro.bench.experiments.EXPERIMENTS` — this file only reruns it
and rewrites ``ablation_memory.txt`` / ``BENCH_ablation_memory.json``.
"""

from repro.bench.experiments import MEMORY, run_experiment


def test_ablation_memory():
    """Unified arena spills less shuffle data and borrows for cache."""
    assert not run_experiment(MEMORY, check=True, commit=True)
