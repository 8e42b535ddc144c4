"""Figure 11: breakdown of the slowest task's execution time.

(a) LR-40G — minimal GC everywhere; SparkSer's deserialization shows up
    as extra compute;
(b) LR-100G — Spark dominated by GC, SparkSer keeps it low, Deca lowest;
(c) PR-60G — shuffle read/write dominates Spark; Deca's smaller footprint
    shrinks both.
"""

from repro.config import ExecutionMode
from repro.bench.harness import run_graph_point, run_lr_point
from repro.bench.report import format_table, write_result

MODES = list(ExecutionMode)


def _slowest_task(point):
    run = point.extra.get("run")
    assert run is not None
    slowest = None
    for job in run.metrics.jobs:
        for stage in job.stages:
            task = stage.slowest_task
            if task is not None and (slowest is None
                                     or task.duration_ms
                                     > slowest.duration_ms):
                slowest = task
    return slowest


def test_fig11_breakdown():
    def scenario():
        out = {}
        for label in ("40GB", "100GB"):
            for mode in MODES:
                point = run_lr_point(label, mode, iterations=3)
                out[(f"LR-{label}", mode)] = (point,
                                              _slowest_task(point))
        for mode in MODES:
            point = run_graph_point("PR", "HB", mode, iterations=2)
            totals = point.extra.setdefault("totals", {})
            # Graph points don't carry the AppRun; aggregate from rows.
            out[("PR-60G", mode)] = (point, None)
        return out

    out = scenario()

    body = []
    for (label, mode), (point, task) in out.items():
        if task is not None:
            body.append([label, mode.value, f"{task.compute_ms:.1f}",
                         f"{task.gc_pause_ms:.1f}",
                         f"{task.shuffle_read_ms:.1f}",
                         f"{task.shuffle_write_ms:.1f}"])
        else:
            body.append([label, mode.value, f"{point.exec_s * 1000:.1f}",
                         f"{point.gc_s * 1000:.1f}", "-", "-"])
    table = format_table(
        "Figure 11: slowest-task breakdown (ms)",
        ["point", "mode", "compute", "gc", "shuffle-read",
         "shuffle-write"], body)
    print(table)
    write_result("fig11_breakdown", table)

    # (a) LR-40G: GC is small for every mode; SparkSer's task computes
    # longer than Spark's (deserialization).
    lr40 = {mode: task for (label, mode), (_, task) in out.items()
            if label == "LR-40GB"}
    spark_task = lr40[ExecutionMode.SPARK]
    ser_task = lr40[ExecutionMode.SPARK_SER]
    deca_task = lr40[ExecutionMode.DECA]
    assert ser_task.deser_ms > spark_task.deser_ms
    assert deca_task.duration_ms <= spark_task.duration_ms * 1.2

    # (b) LR-100G: Spark's slowest task is GC/IO-bound; Deca's is not.
    lr100 = {mode: task for (label, mode), (_, task) in out.items()
             if label == "LR-100GB"}
    assert lr100[ExecutionMode.SPARK].duration_ms > \
        2 * lr100[ExecutionMode.DECA].duration_ms

    # (c) PR-60G: Deca's run beats Spark's.
    pr = {mode: point for (label, mode), (point, _) in out.items()
          if label == "PR-60G"}
    assert pr[ExecutionMode.DECA].exec_s < pr[ExecutionMode.SPARK].exec_s
