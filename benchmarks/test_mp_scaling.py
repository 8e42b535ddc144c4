"""Scaling curve of the mp backend over ``mp_workers``, sim beside it.

ROADMAP item 4 asks whether the real multiprocess backend earns its
place: this file measures PageRank at the ``pr-mp`` size and WordCount
at the ``wc-shuffle`` size of ``benchmarks/perf`` (Pokec x 5 iterations
x 8 partitions; 30k words / 10k keys x 4 partitions) with 1, 2 and 4
job-scoped executors, next to the sim backend on the same inputs.

Every number is **real** elapsed seconds (``time.perf_counter``) around
one whole application run — context, job(s), ``finish()`` — the median
and the minimum of ``REPEATS`` runs after one discarded warm-up.  The box
this was committed from has two cores, so 4 workers oversubscribe it;
the file records ``os.cpu_count()`` next to the curve for that reason.
Results are also checked: every cell must produce the sim answer.
"""

import os
import statistics
import time

from repro.apps.pagerank import run_pagerank
from repro.apps.wordcount import run_wordcount
from repro.bench.harness import (GRAPH_SCALES, WC_HEAP_MB, WC_SIZES,
                                 graph_config)
from repro.bench.report import format_table, write_json_result, \
    write_result
from repro.config import MB, DecaConfig, ExecutionMode
from repro.data import power_law_graph, random_words

WORKERS = (1, 2, 4)
REPEATS = 5
PR_ITERATIONS, PR_PARTITIONS = 5, 8
WC_PARTITIONS = 4


def wc_config(**overrides):
    # harness.run_wc_point's settings.
    return DecaConfig(mode=ExecutionMode.DECA, heap_bytes=WC_HEAP_MB * MB,
                      num_executors=2, tasks_per_executor=2,
                      page_bytes=256 * 1024, storage_fraction=0.2,
                      shuffle_fraction=0.8, **overrides)


def test_mp_scaling():
    scale = GRAPH_SCALES["Pokec"]
    edges = power_law_graph(scale.vertices, scale.edges)
    words = random_words(*WC_SIZES[("50GB", "100M")])
    apps = {
        "pr": lambda **axes: run_pagerank(
            edges, graph_config(ExecutionMode.DECA, **axes),
            iterations=PR_ITERATIONS, num_partitions=PR_PARTITIONS),
        "wc": lambda **axes: run_wordcount(
            words, wc_config(**axes), num_partitions=WC_PARTITIONS),
    }
    cells = [("sim", dict(execution_backend="sim"))] + [
        (f"mp-{n}", dict(execution_backend="mp", mp_workers=n))
        for n in WORKERS]

    def scenario():
        grid = {}
        for app, run_app in apps.items():
            for label, axes in cells:
                walls = []
                for _ in range(REPEATS + 1):
                    start = time.perf_counter()
                    run = run_app(**axes)
                    walls.append(time.perf_counter() - start)
                grid[(app, label)] = (run, walls[1:])
        return grid

    grid = scenario()

    for app in apps:
        for label, _ in cells:
            assert grid[(app, label)][0].result == \
                grid[(app, "sim")][0].result, (app, label)
    for n in WORKERS:
        stats = grid[("pr", f"mp-{n}")][0].metrics.backend
        assert stats["workers_forked"] == n    # one job, forked once
        assert stats["segments_live"] == 0

    rows, points = [], {}
    for (app, label), (run, walls) in grid.items():
        stats = run.metrics.backend
        median, low = statistics.median(walls), min(walls)
        rows.append([app, label, round(median, 3), round(low, 3),
                     stats.get("workers_forked", 0),
                     stats.get("mp_tasks", 0),
                     stats.get("segments_created", 0)])
        points[f"{app}/{label}"] = {
            "wall_s_median": round(median, 6),
            "wall_s_min": round(low, 6),
            "wall_s": [round(w, 6) for w in walls],
            "workers_forked": stats.get("workers_forked", 0),
            "mp_stages": stats.get("mp_stages", 0),
            "mp_tasks": stats.get("mp_tasks", 0),
            "segments_created": stats.get("segments_created", 0),
        }
    table = format_table(
        f"mp backend scaling (real wall seconds, {os.cpu_count()}-core "
        f"host, median/min of {REPEATS})",
        ["app", "backend", "median(s)", "min(s)", "forks", "mp_tasks",
         "segments"],
        rows)
    print(table)
    write_result("mp_scaling", table)
    write_json_result("BENCH_mp_scaling", {
        "benchmark": "mp_scaling",
        "clock": "time.perf_counter, whole application run",
        "host_cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "sizes": {
            "pr": {"vertices": scale.vertices, "edges": len(edges),
                   "iterations": PR_ITERATIONS,
                   "partitions": PR_PARTITIONS},
            "wc": {"words": len(words), "keys": len(set(words)),
                   "partitions": WC_PARTITIONS},
        },
        "points": points,
    })
