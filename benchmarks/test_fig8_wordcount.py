"""Figure 8: the shuffling-only WordCount experiment.

(a) lifetime timeline — live ``Tuple2`` population and cumulative GC time
    sampled over the run, Spark vs Deca;
(b) execution time across dataset sizes and key cardinalities — Deca wins
    by 10–58 %, and the gap grows with the number of unique keys because
    the eager-aggregation buffer (where Deca reuses value segments and
    skips serialization) scales with key count.
"""

from repro.config import ExecutionMode
from repro.bench.harness import WC_SIZES, run_wc_point
from repro.bench.report import ascii_timeline, format_table, \
    rows_as_json, rows_as_table, write_json_result, write_result


def test_fig8a_wc_lifetime():
    """Fig. 8(a): shuffle-buffer object population timeline."""

    def scenario():
        rows = {}
        for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
            point = run_wc_point("50GB", "100M", mode, profile=True)
            run = point.extra["run"]
            samples = []
            for executor in run.ctx.executors:
                assert executor.profiler is not None
                samples.extend(executor.profiler.samples)
            rows[mode] = (point, sorted(samples, key=lambda s: s.time_ms))
        return rows

    rows = scenario()
    spark_point, spark_samples = rows[ExecutionMode.SPARK]
    deca_point, deca_samples = rows[ExecutionMode.DECA]

    # Deca's buffers are pages: its peak tracked population must sit far
    # below Spark's per-pair Tuple2 population.
    spark_peak = max(s.tracked_objects for s in spark_samples)
    deca_peak = max(s.tracked_objects for s in deca_samples)
    assert deca_peak < spark_peak / 10

    # Cumulative GC time is monotone and lower for Deca at the end.
    assert spark_samples[-1].gc_pause_ms >= deca_samples[-1].gc_pause_ms

    table = format_table(
        "Figure 8(a): WC lifetime (live shuffle objects, cumulative GC)",
        ["mode", "t(ms)", "tracked-objects", "gc(ms)"],
        [(mode.value, f"{s.time_ms:.0f}", s.tracked_objects,
          f"{s.gc_pause_ms:.2f}")
         for mode, (_, samples) in rows.items() for s in samples])
    chart = ascii_timeline(
        "live shuffle-buffer objects over time",
        {mode.value: [(s.time_ms, float(s.tracked_objects))
                      for s in samples]
         for mode, (_, samples) in rows.items()})
    print(table)
    print(chart)
    write_result("fig8a_wc_lifetime", table + "\n\n" + chart)


def test_fig8b_wc_exec():
    """Fig. 8(b): WC execution time by size and key count."""

    def scenario():
        rows = []
        for size, keys in WC_SIZES:
            for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
                rows.append(run_wc_point(size, keys, mode))
        return rows

    rows = scenario()
    table = rows_as_table("Figure 8(b): WC execution time", rows,
                          include_cache=False)
    print(table)
    write_result("fig8b_wc_exec", table)
    write_json_result("BENCH_fig8b_wc_exec", rows_as_json(rows))

    by_point = {}
    for row in rows:
        by_point.setdefault(row.label, {})[row.mode] = row
    improvements = {}
    for label, pair in by_point.items():
        spark, deca = pair["spark"], pair["deca"]
        # Deca reduces execution time at every point (paper: 10–58 %).
        assert deca.exec_s < spark.exec_s, label
        improvements[label] = 1.0 - deca.exec_s / spark.exec_s

    # The improvement grows with the key cardinality at fixed size.
    for size in ("50GB", "100GB", "150GB"):
        assert improvements[f"{size}/100M"] > improvements[f"{size}/10M"]
