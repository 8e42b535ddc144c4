"""Ablation: simulated vs real multiprocess execution backend.

The sim backend models costs on simulated clocks inside one process;
the mp backend (``execution_backend="mp"``, docs/execution_backends.md)
forks a real worker pool and moves decomposed shuffle/cache data across
process boundaries as shared-memory Deca page segments, read in place.

The cells, gates (equivalence, zero record bytes pickled, shared pages),
table and JSON shape are the ``backend`` row of
:data:`repro.bench.experiments.EXPERIMENTS` — this file only reruns it
and rewrites ``ablation_backend.txt`` / ``BENCH_ablation_backend.json``.
Unlike every other ablation its wall seconds are *real* elapsed time
(``"clock": "real"``): the repo's actually-parallel perf trajectory.
"""

from repro.bench.experiments import BACKEND, run_experiment


def test_ablation_backend():
    """mp matches sim bit-for-bit while pickling ~0 record bytes."""
    assert not run_experiment(BACKEND, check=True, commit=True)
