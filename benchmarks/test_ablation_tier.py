"""Ablation: heap vs mmap cold tier in the swapping regime (App. C).

LR at ~2.3x the old generation evicts and re-reads its cached page groups
all run long.  The heap tier round-trips the bytes through serializer
copies on the Python heap; the mmap tier (``cold_tier="mmap"``,
docs/memory_model.md) moves them into file-backed extents and promotes
them back as zero-copy views.

The cells, gates (same answer, heap pays copies, mmap moves bytes with
none), table and JSON shape are the ``tier`` row of
:data:`repro.bench.experiments.EXPERIMENTS` — this file only reruns it
and rewrites ``ablation_tier.txt`` / ``BENCH_ablation_tier.json``.
"""

from repro.bench.experiments import TIER, run_experiment


def test_ablation_tier():
    """Both tiers agree; only the heap tier pays serializer copies."""
    assert not run_experiment(TIER, check=True, commit=True)
