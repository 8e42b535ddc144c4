"""Figure 9: the caching-only LR / KMeans experiments.

(a) LR lifetime timeline — the cached LabeledPoint population is stable in
    Spark while full GCs fire in vain; Deca's tracked population is pages;
(b) LR execution time and cache size across dataset scales — moderate
    gains while the cache fits, an order of magnitude once the old
    generation fills, and swapping effects beyond;
(c) the same sweep for KMeans (caching + aggregated shuffling);
(d) the high-dimension (Amazon-like) datasets — cache sizes nearly equal,
    speedups shrink.
"""

from repro.config import ExecutionMode
from repro.bench.harness import (
    run_kmeans_point,
    run_lr_point,
)
from repro.bench.report import ascii_timeline, format_table, \
    rows_as_table, speedup, write_result

MODES = list(ExecutionMode)


def test_fig9a_lr_lifetime():
    """Fig. 9(a): cached-object population and GC-time timeline."""

    def scenario():
        out = {}
        for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
            point = run_lr_point("80GB", mode, iterations=3, profile=True)
            run = point.extra["run"]
            samples = []
            for executor in run.ctx.executors:
                assert executor.profiler is not None
                samples.extend(executor.profiler.samples)
            out[mode] = (point, sorted(samples, key=lambda s: s.time_ms))
        return out

    out = scenario()
    spark_point, spark_samples = out[ExecutionMode.SPARK]
    deca_point, deca_samples = out[ExecutionMode.DECA]

    # Spark: a large, stable cached-object population (the full GCs that
    # fire reclaim nothing).  Deca: a handful of pages.
    spark_peak = max(s.tracked_objects for s in spark_samples)
    deca_peak = max(s.tracked_objects for s in deca_samples)
    assert spark_peak > 10_000
    assert deca_peak < spark_peak / 100

    # Spark's cumulative GC time keeps climbing after the cache is built.
    mid = spark_samples[len(spark_samples) // 2]
    assert spark_samples[-1].gc_pause_ms > mid.gc_pause_ms

    table = format_table(
        "Figure 9(a): LR lifetime (tracked cached objects, cumulative GC)",
        ["mode", "t(ms)", "tracked-objects", "gc(ms)"],
        [(mode.value, f"{s.time_ms:.0f}", s.tracked_objects,
          f"{s.gc_pause_ms:.2f}")
         for mode, (_, samples) in out.items() for s in samples])
    chart = ascii_timeline(
        "live cached objects over time",
        {mode.value: [(s.time_ms, float(s.tracked_objects))
                      for s in samples]
         for mode, (_, samples) in out.items()})
    print(table)
    print(chart)
    write_result("fig9a_lr_lifetime", table + "\n\n" + chart)


def _sweep(run_point, labels, iterations):
    rows = []
    for label in labels:
        for mode in MODES:
            rows.append(run_point(label, mode, iterations=iterations))
    return rows


def _check_sweep(rows, *, big_speedup: float):
    by_point = {}
    for row in rows:
        by_point.setdefault(row.label, {})[row.mode] = row
    # Small dataset: everyone is close; Deca never loses.
    small = by_point["40GB"]
    assert small["deca"].exec_s <= small["spark"].exec_s * 1.1
    # Large no-spill dataset: Deca wins big (paper: 16–41x).
    large = by_point["80GB"]
    assert speedup(large["spark"], large["deca"]) > big_speedup
    # Spill regime: Spark swaps cached data, Deca swaps less (or none).
    spill = by_point["200GB"]
    assert spill["spark"].swapped_mb > 0
    assert spill["deca"].swapped_mb <= spill["spark"].swapped_mb
    assert speedup(spill["spark"], spill["deca"]) > 2.0
    # In-memory cache footprints: Spark's object form dwarfs Deca's pages
    # wherever Spark still holds blocks in memory (swapped bytes are raw
    # data in both systems, so totals converge once everything spills).
    for label, modes in by_point.items():
        if modes["spark"].cached_mb > 0 and modes["spark"].swapped_mb == 0:
            assert modes["spark"].cached_mb > modes["deca"].cached_mb \
                + modes["deca"].swapped_mb


def test_fig9b_lr():
    """Fig. 9(b): LR execution time + cache size sweep."""
    rows = _sweep(run_lr_point, ("40GB", "80GB", "100GB", "200GB"), 3)
    table = rows_as_table("Figure 9(b): LR sweep", rows)
    print(table)
    write_result("fig9b_lr", table)
    _check_sweep(rows, big_speedup=3.0)


def test_fig9c_kmeans():
    """Fig. 9(c): KMeans execution time + cache size sweep."""
    rows = _sweep(run_kmeans_point, ("40GB", "80GB", "100GB", "200GB"), 3)
    table = rows_as_table("Figure 9(c): KMeans sweep", rows)
    print(table)
    write_result("fig9c_kmeans", table)
    # KMeans is more compute-bound at this scale than in the paper, so
    # the execution-time gap is smaller; the GC elimination (Table 3's
    # 99.8 %) is checked below.
    _check_sweep(rows, big_speedup=1.3)
    by_point = {}
    for row in rows:
        by_point.setdefault(row.label, {})[row.mode] = row
    large = by_point["80GB"]
    assert large["deca"].gc_s < 0.03 * large["spark"].gc_s


def test_fig9d_highdim():
    """Fig. 9(d): 4096-dimension vectors — the cache-size gap closes."""

    def scenario():
        rows = []
        for label in ("40GB", "80GB"):
            for mode in MODES:
                rows.append(run_lr_point(
                    label, mode, iterations=3, dimensions=4096,
                    heap_mb=32))
        return rows

    rows = scenario()
    table = rows_as_table("Figure 9(d): high-dimension LR", rows)
    print(table)
    write_result("fig9d_highdim", table)

    by_point = {}
    for row in rows:
        by_point.setdefault(row.label, {})[row.mode] = row
    for label, modes in by_point.items():
        spark_total = modes["spark"].cached_mb + modes["spark"].swapped_mb
        deca_total = modes["deca"].cached_mb + modes["deca"].swapped_mb
        # Object headers are negligible at 4096 dims: sizes within ~15 %.
        assert abs(spark_total - deca_total) < 0.15 * spark_total
        # Deca still does not lose.
        assert modes["deca"].exec_s <= modes["spark"].exec_s * 1.1
