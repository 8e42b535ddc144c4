"""Ablation: simulated vs real multiprocess execution backend.

The sim backend models costs on simulated clocks inside one process;
the mp backend (``execution_backend="mp"``, docs/execution_backends.md)
forks a real worker pool and moves decomposed shuffle/cache data across
process boundaries as shared-memory Deca page segments, read in place.

This ablation runs the same seeded WordCount and PageRank inputs under
both backends and checks the two claims the backend layer makes:

* **equivalence** — the mp backend produces bitwise-identical results
  (the workers run the same data-plane code in the same order);
* **zero-copy** — decomposed paths serialize ~nothing: WordCount under
  DECA pickles 0 record bytes, and both apps move their decomposed
  payloads through shared segments (``bytes_shared > 0``).

Unlike every other benchmark in this directory, the mp wall seconds are
*real* elapsed time — this file starts the repo's actually-parallel
perf trajectory (``BENCH_ablation_backend.json``).
"""

import time

from repro.bench.harness import cell_inputs, run_cell
from repro.bench.report import format_table, write_json_result, \
    write_result
from repro.config import DecaConfig, ExecutionMode

WORDS = 30_000
KEYS = 1_500
NODES = 300
EDGES = 1_500
ITERATIONS = 3
PARTITIONS = 4
SEED = 17


def test_ablation_backend(once):
    """mp matches sim bit-for-bit while pickling ~0 record bytes."""

    def scenario():
        inputs = cell_inputs(SEED, words=WORDS, keys=KEYS, nodes=NODES,
                             edges=EDGES)
        grid = {}
        for backend in ("sim", "mp"):
            for app in ("wc", "pr"):
                cfg = DecaConfig(mode=ExecutionMode.DECA,
                                 execution_backend=backend)
                start = time.perf_counter()
                _, run = run_cell(app, inputs, cfg, iterations=ITERATIONS,
                                  partitions=PARTITIONS)
                grid[(app, backend)] = (run, time.perf_counter() - start)
        return grid

    grid = once(scenario)

    # Equivalence: real processes, identical answers.
    assert grid[("wc", "sim")][0].result == grid[("wc", "mp")][0].result
    assert grid[("pr", "sim")][0].result == grid[("pr", "mp")][0].result

    # Zero-copy: WC's decomposed shuffle pickles no record payload; both
    # apps move decomposed bytes through shared segments.
    wc_stats = grid[("wc", "mp")][0].metrics.backend
    pr_stats = grid[("pr", "mp")][0].metrics.backend
    assert wc_stats["bytes_pickled_records"] == 0
    assert wc_stats["bytes_shared"] > 0
    assert pr_stats["bytes_shared"] > 0
    assert wc_stats["segments_created"] > 0

    rows = []
    for (app, backend), (run, wall_s) in sorted(grid.items()):
        stats = run.metrics.backend
        rows.append([
            app, backend, round(wall_s, 3),
            stats.get("bytes_pickled_records", 0),
            stats.get("bytes_pickled_results", 0),
            stats.get("bytes_shared", 0),
            stats.get("segments_created", 0),
            stats.get("mp_tasks", 0),
        ])
    table = format_table(
        "Ablation: sim vs mp execution backend (real wall seconds)",
        ["app", "backend", "wall(s)", "pickled_rec_B", "pickled_res_B",
         "shared_B", "segments", "mp_tasks"],
        rows)
    print(table)
    write_result("ablation_backend", table)
    write_json_result("BENCH_ablation_backend", {
        "benchmark": "ablation_backend",
        "backends": ["sim", "mp"],
        "points": {
            f"{app}/{backend}": {
                "wall_s": round(wall_s, 6),
                "bytes_pickled_records":
                    run.metrics.backend.get("bytes_pickled_records", 0),
                "bytes_pickled_results":
                    run.metrics.backend.get("bytes_pickled_results", 0),
                "bytes_shared":
                    run.metrics.backend.get("bytes_shared", 0),
                "segments_created":
                    run.metrics.backend.get("segments_created", 0),
                "equivalent": run.result
                    == grid[(app, "sim")][0].result,
            }
            for (app, backend), (run, wall_s) in sorted(grid.items())
        },
    })
