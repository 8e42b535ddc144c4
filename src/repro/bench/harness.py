"""Scaled workload points for the paper's experiments.

The cluster in the paper has 4 workers with 20–30 GB heaps; the datasets
range from 2 GB to 200 GB.  Everything here is scaled by roughly 10⁴ while
preserving the *occupancy regimes* that drive each figure:

* a "40 GB" dataset fills ~45 % of the old generation in object form —
  full collections are rare;
* an "80 GB" dataset fills ~90 % — the futile-full-GC regime of §2.2
  where Spark burns most of its time tracing live cached objects;
* "100/200 GB" datasets exceed the storage budget — the swapping regime
  of Appendix C.

Each ``run_*_point`` executes one application under one mode with the
family's fixed heap and returns a :class:`FigureRow` carrying the metrics
the tables/figures report.
"""

from __future__ import annotations

import hashlib
import random

from dataclasses import dataclass, field
from typing import Any

from ..config import (
    DecaConfig,
    ExecutionMode,
    FaultConfig,
    GcAlgorithm,
    MB,
    ScriptedFault,
)
from ..data import (
    clustered_points,
    labeled_points,
    power_law_graph,
    random_words,
)
from ..apps.common import AppRun
from ..apps.connected_components import run_connected_components
from ..apps.kmeans import run_kmeans
from ..apps.logistic_regression import run_logistic_regression
from ..apps.pagerank import run_pagerank
from ..apps.wordcount import run_wordcount


@dataclass(frozen=True)
class FigureRow:
    """One data point of a table or figure."""

    app: str
    label: str
    mode: str
    exec_s: float
    gc_s: float
    cached_mb: float = 0.0
    swapped_mb: float = 0.0
    full_gcs: int = 0
    minor_gcs: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def gc_fraction(self) -> float:
        return self.gc_s / self.exec_s if self.exec_s > 0 else 0.0


def _row(app: str, label: str, mode: ExecutionMode, run: AppRun,
         **extra: Any) -> FigureRow:
    metrics = run.metrics
    return FigureRow(
        app=app, label=label, mode=mode.value,
        exec_s=metrics.wall_ms / 1000.0,
        gc_s=metrics.gc_pause_ms / 1000.0,
        cached_mb=run.cached_bytes / MB,
        swapped_mb=run.swapped_cache_bytes / MB,
        full_gcs=metrics.full_gc_count,
        minor_gcs=metrics.minor_gc_count,
        extra=dict(extra),
    )


# ---------------------------------------------------------------------------
# LR / KMeans family (Fig. 9, Tables 3–5)
# ---------------------------------------------------------------------------

LR_HEAP_MB = 4
LR_EXECUTORS = 2
LR_DIMENSIONS = 10
LR_PARTITIONS = 8
# Bytes of one 10-dim LabeledPoint in object form: 24 (LP) + 32 (DV)
# + 96 (double[10]) — see Fig. 2.
_LR_OBJECT_BYTES = 152

# Paper label -> old-generation occupancy of the Spark object cache.
LR_SIZES: dict[str, float] = {
    "40GB": 0.45,
    "60GB": 0.65,
    "80GB": 0.90,
    "100GB": 1.15,
    "200GB": 2.30,
}


def lr_config(mode: ExecutionMode, heap_mb: int = LR_HEAP_MB,
              **overrides: Any) -> DecaConfig:
    defaults: dict[str, Any] = dict(
        mode=mode, heap_bytes=heap_mb * MB, num_executors=LR_EXECUTORS,
        tasks_per_executor=2, page_bytes=256 * 1024,
        young_fraction=0.25,
        # The paper gives 90% of the memory to data caching in the
        # caching-only experiments (§6.2).
        storage_fraction=0.9, shuffle_fraction=0.1)
    defaults.update(overrides)
    return DecaConfig(**defaults)


def lr_records_for(label: str, heap_mb: int = LR_HEAP_MB,
                   dimensions: int = LR_DIMENSIONS) -> int:
    """Record count that lands the Spark object cache at the label's
    old-generation occupancy."""
    occupancy = LR_SIZES[label]
    old_bytes = heap_mb * MB * 0.75
    object_bytes = 24 + 32 + (16 + 8 * dimensions + 7) // 8 * 8
    total = occupancy * old_bytes * LR_EXECUTORS
    return max(100, int(total / object_bytes))


def run_lr_point(label: str, mode: ExecutionMode, iterations: int = 5,
                 dimensions: int = LR_DIMENSIONS,
                 heap_mb: int = LR_HEAP_MB,
                 profile: bool = False,
                 **config_overrides: Any) -> FigureRow:
    records = lr_records_for(label, heap_mb, dimensions)
    data = labeled_points(records, dimensions)
    if profile:
        # Sample densely enough for the run's simulated duration.
        config_overrides.setdefault("profiler_period_ms", 5.0)
    config = lr_config(mode, heap_mb, **config_overrides)
    run = run_logistic_regression(data, config, iterations=iterations,
                                  num_partitions=LR_PARTITIONS,
                                  profile=profile)
    row = _row("LR", label, mode, run, records=records)
    row.extra["run"] = run
    return row


def run_kmeans_point(label: str, mode: ExecutionMode, k: int = 4,
                     iterations: int = 5,
                     dimensions: int = LR_DIMENSIONS,
                     heap_mb: int = LR_HEAP_MB,
                     **config_overrides: Any) -> FigureRow:
    records = lr_records_for(label, heap_mb, dimensions)
    data = clustered_points(records, dimensions, clusters=k)
    config = lr_config(mode, heap_mb, **config_overrides)
    run = run_kmeans(data, k=k, config=config, iterations=iterations,
                     num_partitions=LR_PARTITIONS)
    return _row("KMeans", label, mode, run, records=records)


# ---------------------------------------------------------------------------
# WordCount family (Fig. 8)
# ---------------------------------------------------------------------------

WC_HEAP_MB = 3
# Paper label -> (words, unique keys); "10M"/"100M" key variants scale to
# small/large shuffle-buffer populations.
WC_SIZES: dict[tuple[str, str], tuple[int, int]] = {
    ("50GB", "10M"): (30_000, 1_000),
    ("100GB", "10M"): (60_000, 1_000),
    ("150GB", "10M"): (90_000, 1_000),
    ("50GB", "100M"): (30_000, 10_000),
    ("100GB", "100M"): (60_000, 20_000),
    ("150GB", "100M"): (90_000, 30_000),
}


def run_wc_point(size_label: str, keys_label: str, mode: ExecutionMode,
                 profile: bool = False,
                 **config_overrides: Any) -> FigureRow:
    words, keys = WC_SIZES[(size_label, keys_label)]
    data = random_words(words, keys)
    if profile:
        config_overrides.setdefault("profiler_period_ms", 2.0)
    defaults: dict[str, Any] = dict(
        mode=mode, heap_bytes=WC_HEAP_MB * MB, num_executors=2,
        tasks_per_executor=2, page_bytes=256 * 1024,
        storage_fraction=0.2, shuffle_fraction=0.8)
    defaults.update(config_overrides)
    run = run_wordcount(data, DecaConfig(**defaults), num_partitions=4,
                        profile=profile)
    row = _row("WC", f"{size_label}/{keys_label}", mode, run,
               words=words, keys=keys)
    row.extra["run"] = run
    return row


# ---------------------------------------------------------------------------
# PageRank / ConnectedComponent family (Fig. 10)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphScale:
    """A scaled stand-in for one of Table 2's graphs."""

    name: str
    label: str
    vertices: int
    edges: int


GRAPH_SCALES: dict[str, GraphScale] = {
    "LJ": GraphScale("LiveJournal", "LJ(2GB)", 4_800, 34_000),
    "WB": GraphScale("WebBase", "WB(30GB)", 11_800, 100_000),
    "HB": GraphScale("HiBench", "HB(60GB)", 30_000, 200_000),
    "Pokec": GraphScale("Pokec", "Pokec", 1_600, 15_000),
}

GRAPH_HEAP_MB = 2.5


def graph_config(mode: ExecutionMode, heap_mb: float = GRAPH_HEAP_MB,
                 **overrides: Any) -> DecaConfig:
    defaults: dict[str, Any] = dict(
        mode=mode, heap_bytes=int(heap_mb * MB), num_executors=2,
        tasks_per_executor=2, page_bytes=128 * 1024,
        storage_fraction=0.4, shuffle_fraction=0.6)
    defaults.update(overrides)
    return DecaConfig(**defaults)


def run_graph_point(app: str, scale_key: str, mode: ExecutionMode,
                    iterations: int = 3,
                    **config_overrides: Any) -> FigureRow:
    """Run PR or CC on one scaled graph."""
    scale = GRAPH_SCALES[scale_key]
    edges = power_law_graph(scale.vertices, scale.edges)
    config = graph_config(mode, **config_overrides)
    if app == "PR":
        run = run_pagerank(edges, config, iterations=iterations,
                           num_partitions=8)
    elif app == "CC":
        run = run_connected_components(edges, config,
                                       iterations=iterations,
                                       num_partitions=8)
    else:
        raise ValueError(f"unknown graph app {app!r}")
    return _row(app, scale.label, mode, run,
                vertices=scale.vertices, edges=scale.edges)


# ---------------------------------------------------------------------------
# GC tuning points (Table 4)
# ---------------------------------------------------------------------------

def run_lr_tuning_point(storage_fraction: float,
                        algorithm: GcAlgorithm,
                        label: str = "80GB") -> FigureRow:
    shuffle = round(1.0 - storage_fraction, 2)
    return run_lr_point(
        label, ExecutionMode.SPARK,
        storage_fraction=storage_fraction,
        shuffle_fraction=min(shuffle, 1.0 - storage_fraction),
        gc_algorithm=algorithm)


def run_pr_tuning_point(storage_fraction: float,
                        algorithm: GcAlgorithm,
                        scale_key: str = "WB") -> FigureRow:
    return run_graph_point(
        "PR", scale_key, ExecutionMode.SPARK,
        storage_fraction=storage_fraction,
        shuffle_fraction=round(1.0 - storage_fraction, 2),
        gc_algorithm=algorithm)


# ---------------------------------------------------------------------------
# Trace point (repro.obs demonstration workload)
# ---------------------------------------------------------------------------

def run_trace_point(mode: ExecutionMode = ExecutionMode.SPARK,
                    words: int = 20_000, keys: int = 2_000,
                    faults: FaultConfig | None = None,
                    **config_overrides: Any) -> FigureRow:
    """A WordCount variant sized to exercise every traced code path.

    The input lines are cached under a storage budget too small to hold
    them (cache swap-outs), the shuffle budget is tiny (map-side spills)
    and two jobs run over the same lineage (cache re-reads, multiple
    job/stage spans) — so one run's trace contains job, stage and task
    spans plus GC, spill and swap events.  ``extra["run"]`` carries the
    :class:`~repro.apps.common.AppRun`, whose context owns the tracer.
    """
    from ..spark import DecaContext
    from ..spark.metrics import RunMetrics

    defaults: dict[str, Any] = dict(
        mode=mode, heap_bytes=3 * MB, num_executors=2,
        tasks_per_executor=2, page_bytes=128 * 1024,
        storage_fraction=0.05, shuffle_fraction=0.05)
    defaults.update(config_overrides)
    if faults is not None:
        defaults["faults"] = faults
    ctx = DecaContext(DecaConfig(**defaults))
    data = random_words(words, keys)
    lines = ctx.text_file(data, 4, name="trace.input").cache()
    counts = lines.map(lambda word: (word, 1), name="trace.pairs") \
                  .reduce_by_key(lambda a, b: a + b, 4,
                                 name="trace.counts")
    total_words = lines.count()          # job 0: materialize the cache
    result = dict(counts.collect())      # job 1: shuffle over cached input
    metrics: RunMetrics = ctx.finish()
    run = AppRun(result={"words": total_words, "counts": result},
                 metrics=metrics, ctx=ctx)
    row = _row("WC-TRACE", f"{words}w/{keys}k", mode, run,
               words=words, keys=keys)
    row.extra["run"] = run
    return row


# ---------------------------------------------------------------------------
# Memory-arena ablation points (static vs unified, docs/memory_model.md)
# ---------------------------------------------------------------------------

# Workload key -> what regime it stresses.
MEMORY_WORKLOADS: tuple[str, ...] = ("shuffle-heavy", "cache-heavy")


def memory_summary(run: AppRun) -> dict[str, Any]:
    """Deterministic, integer-only accounting summary of one run.

    Aggregates the ``memory:*`` trace events, the spill/swap events of
    the legacy planes, and (in unified mode) the per-executor arena
    counters — what the ``memory`` experiment row is built from, equal
    byte for byte across seeded runs.
    """
    events: dict[str, int] = {}
    spilled_bytes = 0
    swapped_bytes = 0
    for event in run.ctx.tracer.events:
        if event.category == "memory":
            events[event.name] = events.get(event.name, 0) + 1
        elif event.name in ("shuffle:spill", "shuffle:merge-spill"):
            events[event.name] = events.get(event.name, 0) + 1
            spilled_bytes += int(event.args.get("spilled_bytes", 0))
        elif event.name == "cache:swap-out":
            events[event.name] = events.get(event.name, 0) + 1
            swapped_bytes += int(event.args.get("released_bytes", 0))
    arena: dict[str, int] = {}
    for executor in run.ctx.executors:
        snapshot = getattr(executor.arena, "snapshot", None)
        if snapshot is None:
            continue
        for key, value in snapshot().items():
            arena[key] = arena.get(key, 0) + value
    return {
        "events": dict(sorted(events.items())),
        "spilled_bytes": spilled_bytes,
        "swapped_cache_bytes": swapped_bytes,
        "arena": dict(sorted(arena.items())),
    }


def run_memory_point(workload: str, memory_mode: str,
                     mode: ExecutionMode = ExecutionMode.SPARK,
                     **config_overrides: Any) -> FigureRow:
    """One memory-ablation point: a workload under one ``memory_mode``.

    * ``shuffle-heavy`` — WordCount with a shuffle budget far below its
      buffer population: static mode spills repeatedly, unified mode
      grows execution grants into the arena instead.
    * ``cache-heavy`` — the two-job traced WordCount whose cached input
      exceeds the storage region: unified mode borrows for the cache and
      then evicts it back when execution demands (borrow + evict
      events); static mode fail-fast-rejects the oversized blocks.
    """
    overrides = dict(config_overrides)
    overrides["memory_mode"] = memory_mode
    if workload == "shuffle-heavy":
        overrides.setdefault("storage_fraction", 0.05)
        overrides.setdefault("shuffle_fraction", 0.05)
        row = run_wc_point("100GB", "100M", mode, **overrides)
    elif workload == "cache-heavy":
        row = run_trace_point(mode, words=90_000, keys=2_000, **overrides)
    else:
        raise ValueError(f"unknown memory workload {workload!r}; "
                         f"choose from {MEMORY_WORKLOADS}")
    run: AppRun = row.extra["run"]
    row.extra["memory_mode"] = memory_mode
    row.extra["memory"] = memory_summary(run)
    return row


# ---------------------------------------------------------------------------
# Cold-tier ablation points (heap vs mmap, docs/memory_model.md)
# ---------------------------------------------------------------------------

COLD_TIERS: tuple[str, ...] = ("heap", "mmap")


def result_digest(result: Any) -> str:
    """Stable digest of a job result (tier modes must agree on it)."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def tier_summary(run: AppRun) -> dict[str, Any]:
    """Deterministic summary of one run's swap traffic by cold tier.

    Counts the swap and ``tier:*`` events, the serializer's swap-copy
    byte counter (the Deca-path heap-copy cost the mmap tier removes)
    and the summed :class:`~repro.memory.tier.TierStats` — integers and
    fixed-precision sums only, no file paths, so two seeded runs
    byte-compare equal.
    """
    events: dict[str, int] = {}
    swapped_bytes = 0
    tier_moved = 0
    for event in run.ctx.tracer.events:
        if event.category in ("tier", "io.tier") \
                or event.name.startswith("cache:swap"):
            events[event.name] = events.get(event.name, 0) + 1
        if event.name == "cache:swap-out":
            swapped_bytes += int(event.args.get("released_bytes", 0))
            tier_moved += int(event.args.get("tier_bytes", 0))
    swap_copy = sum(e.serializer.swap_copy_bytes_total
                    for e in run.ctx.executors)
    return {
        "cold_tier": run.ctx.config.cold_tier,
        "events": dict(sorted(events.items())),
        "swapped_bytes": swapped_bytes,
        "tier_bytes_moved": tier_moved,
        "swap_copy_bytes": swap_copy,
        "tier": dict(sorted(run.metrics.tier.items())),
    }


# ---------------------------------------------------------------------------
# Cross-configuration cells (tests/test_config_matrix.py, ``backend``,
# ``sanitize``): one seeded input set, one runner, one digest
# ---------------------------------------------------------------------------

CELL_APPS: tuple[str, ...] = ("wc", "pr", "cc", "kmeans", "lr")
CELL_CLUSTERS = 4


def cell_inputs(seed: int = 17, words: int = 40_000, keys: int = 2_000,
                nodes: int = 400, edges: int = 2_000,
                points: int = 0) -> dict[str, list]:
    """The seeded inputs every cross-configuration comparison runs on.

    ``words`` feeds WordCount, ``edges`` PageRank and
    ConnectedComponents, ``points`` LR and ``clusters`` KMeans (both
    *points* records of :data:`LR_DIMENSIONS` dimensions).
    """
    rng = random.Random(seed)
    return {
        "words": [f"w{rng.randrange(keys)}" for _ in range(words)],
        "edges": sorted({(rng.randrange(nodes), rng.randrange(nodes))
                         for _ in range(edges)}),
        "points": labeled_points(points, LR_DIMENSIONS, seed=seed),
        "clusters": clustered_points(points, LR_DIMENSIONS,
                                     clusters=CELL_CLUSTERS, seed=seed),
    }


def run_cell(app: str, inputs: dict[str, list], config: DecaConfig,
             iterations: int = 3,
             partitions: int = 4) -> tuple[str, AppRun]:
    """Run one workload under one configuration cell.

    Returns ``(digest, run)``: the digest covers the whole result (keys
    *and* values, in key order), so any two cells that computed the same
    answer compare equal whatever order their partitions finished in.
    """
    if app == "wc":
        run = run_wordcount(inputs["words"], config,
                            num_partitions=partitions)
    elif app == "pr":
        run = run_pagerank(inputs["edges"], config, iterations=iterations,
                           num_partitions=partitions)
    elif app == "cc":
        run = run_connected_components(inputs["edges"], config,
                                       iterations=iterations,
                                       num_partitions=partitions)
    elif app == "kmeans":
        run = run_kmeans(inputs["clusters"], k=CELL_CLUSTERS,
                         config=config, iterations=iterations,
                         num_partitions=partitions)
    elif app == "lr":
        run = run_logistic_regression(inputs["points"], config,
                                      iterations=iterations,
                                      num_partitions=partitions)
    else:
        raise ValueError(f"unknown cell app {app!r}; "
                         f"choose from {CELL_APPS}")
    result = run.result
    if isinstance(result, dict):
        result = sorted(result.items())
    return result_digest(result), run


# ---------------------------------------------------------------------------
# SQL layout points (row vs columnar ablation, docs/sql_engine.md)
# ---------------------------------------------------------------------------

SQL_LAYOUTS = ("row", "columnar")


def run_sql_point(layout: str, rankings_rows: int = 4_000,
                  uservisits_rows: int = 8_000,
                  **config_overrides: Any) -> dict[str, Any]:
    """The TPC-H-flavoured suite under one cache layout.

    Runs every suite query on one engine whose relations were cached
    with *layout* and reports per-query result digests and simulated
    wall times.  The layouts must agree on every digest — the layout
    changes how cached bytes are arranged, never what the kernels
    compute.
    """
    if layout not in SQL_LAYOUTS:
        raise ValueError(f"unknown SQL layout {layout!r}; "
                         f"choose from {SQL_LAYOUTS}")
    from ..apps.sql_queries import make_suite_engine, suite_queries
    from ..data import rankings_table, uservisits_table

    config = DecaConfig(**config_overrides)
    digests: dict[str, str] = {}
    walls: dict[str, float] = {}
    with make_suite_engine(rankings_table(rankings_rows),
                           uservisits_table(uservisits_rows),
                           config, layout=layout) as engine:
        cached_bytes = engine.cached_bytes
        layouts = {name: engine.layout_of(name)
                   for name in ("rankings", "uservisits")}
        for name, query in suite_queries():
            result = engine.run(query)
            digests[name] = result_digest(result.rows)
            walls[name] = result.wall_ms
    return {
        "layout": layout,
        "relation_layouts": layouts,
        "cached_bytes": cached_bytes,
        "digests": digests,
        "wall_ms": {name: round(ms, 6) for name, ms in walls.items()},
        "total_wall_ms": round(sum(walls.values()), 6),
    }


def run_sql_swap_roundtrip(rankings_rows: int = 4_000,
                           uservisits_rows: int = 8_000,
                           **config_overrides: Any) -> dict[str, Any]:
    """Demote the cached columnar suite to the cold tier and re-run.

    On the mmap tier (the default here) the cached relations swap out
    as raw page bytes, swap back in as adopted pages, and every query
    must reproduce its resident digest — with ``swap_copy_bytes == 0``
    (no serializer pass anywhere) and the provenance ledger clean.
    With ``cold_tier="heap"`` demotion drops the relations and the
    re-run rebuilds them: same digests, ``swap_copy_bytes > 0``.
    """
    from ..apps.sql_queries import make_suite_engine, suite_queries
    from ..data import rankings_table, uservisits_table

    overrides = dict(config_overrides)
    overrides.setdefault("cold_tier", "mmap")
    overrides.setdefault("sanitize", True)
    config = DecaConfig(**overrides)
    engine = make_suite_engine(rankings_table(rankings_rows),
                               uservisits_table(uservisits_rows),
                               config, layout="columnar")
    try:
        queries = suite_queries()
        resident = {name: result_digest(engine.run(query).rows)
                    for name, query in queries}
        moved_out = (engine.demote_table("rankings")
                     + engine.demote_table("uservisits"))
        # run() promotes each relation back from the tier on demand.
        promoted = {name: result_digest(engine.run(query).rows)
                    for name, query in queries}
        tier_stats = dict(engine.tier_stats or {})
        swap_copy_bytes = engine.swap_copy_bytes
    finally:
        engine.close()
    violations = 0
    if engine.ledger is not None:
        violations = int(engine.ledger.check_finish()["violations"])
    return {
        "resident_digests": resident,
        "promoted_digests": promoted,
        "digests_match": resident == promoted,
        "bytes_moved_out": moved_out,
        "bytes_moved_in": tier_stats.get("bytes_moved_in", 0),
        "swap_copy_bytes": swap_copy_bytes,
        "ledger_violations": violations,
        "tier": tier_stats,
    }


# ---------------------------------------------------------------------------
# Fault-recovery points (fault-tolerance benchmark)
# ---------------------------------------------------------------------------

def fault_recovery_faults(seed: int = 17,
                          task_kill_prob: float = 0.05,
                          fetch_corruption_prob: float = 0.0,
                          executor_crash: bool = True,
                          speculation: bool = False) -> FaultConfig:
    """The standard fault plan of the recovery benchmark.

    Probabilistic task kills plus (optionally) one scripted executor crash
    in the first job's result stage — the crash lands *after* the map
    outputs exist, so recovery must regenerate the lost lineage, not just
    retry the killed task.
    """
    scripted = ()
    if executor_crash:
        scripted = (ScriptedFault("executor-crash", stage_id=1,
                                  partition=0, attempt=0, after_ops=3),)
    return FaultConfig(seed=seed, task_kill_prob=task_kill_prob,
                       fetch_corruption_prob=fetch_corruption_prob,
                       scripted=scripted, speculation=speculation)


def run_fault_recovery_point(size_label: str = "50GB",
                             keys_label: str = "10M",
                             mode: ExecutionMode = ExecutionMode.SPARK,
                             faults: FaultConfig | None = None,
                             **config_overrides: Any) -> FigureRow:
    """WordCount under fault injection, next to its fault-free baseline.

    Runs the same point twice — clean, then with the injector armed —
    checks the faulted run still produces the baseline's exact counts,
    and reports the recovery costs.  ``extra`` carries the full metrics
    trajectory (``RunMetrics.to_dict()``) for the JSON artifact.
    """
    if faults is None:
        faults = fault_recovery_faults()
    baseline = run_wc_point(size_label, keys_label, mode,
                            **config_overrides)
    faulted = run_wc_point(size_label, keys_label, mode, faults=faults,
                           **config_overrides)
    base_run: AppRun = baseline.extra["run"]
    fault_run: AppRun = faulted.extra["run"]
    recovery = fault_run.metrics.recovery
    row = FigureRow(
        app="WC-FT", label=f"{size_label}/{keys_label}", mode=mode.value,
        exec_s=faulted.exec_s, gc_s=faulted.gc_s,
        cached_mb=faulted.cached_mb, swapped_mb=faulted.swapped_mb,
        full_gcs=faulted.full_gcs, minor_gcs=faulted.minor_gcs,
        extra={
            "correct": base_run.result == fault_run.result,
            "baseline_exec_s": baseline.exec_s,
            "recovery_overhead_s": faulted.exec_s - baseline.exec_s,
            "recovery": recovery.to_dict(),
            "trajectory": fault_run.metrics.to_dict(),
        })
    row.extra["run"] = fault_run
    return row
