"""Table 5: the controlled single-machine microbenchmark.

A single executor emulates the paper's multi-threaded standalone harness:
LR (caching only) and PR (caching + shuffling), each with a small heap
(GC-bound) and a large heap (GC-free), under Spark / Deca / SparkSer —
plus the per-object serialization costs at the bottom of the table.

Expected shapes (paper Table 5):
* large heap: Deca ≈ Spark for LR (no GC to save), SparkSer much slower
  (deserialization); Deca clearly faster than Spark for PR (no boxed
  access in the shuffle path);
* small heap: Spark becomes GC-bound; Deca barely changes;
* Kryo deserialization costs several times its serialization, while Deca
  pays a Kryo-like write cost and reads for free.
"""

from repro.config import DecaConfig, ExecutionMode, MB, SerializerCosts
from repro.data import labeled_points, power_law_graph
from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.bench.report import format_table, write_result

MODES = (ExecutionMode.SPARK, ExecutionMode.DECA, ExecutionMode.SPARK_SER)


def _config(mode, heap_mb):
    return DecaConfig(mode=mode, heap_bytes=int(heap_mb * MB),
                      num_executors=1, tasks_per_executor=4,
                      page_bytes=128 * 1024, young_fraction=0.25,
                      storage_fraction=0.9, shuffle_fraction=0.1)


def _lr(mode, heap_mb):
    data = labeled_points(20_000, 10)
    return run_logistic_regression(data, _config(mode, heap_mb),
                                   iterations=4, num_partitions=4)


def _pr(mode, heap_mb):
    edges = power_law_graph(1_600, 15_000)
    return run_pagerank(edges, _config(mode, heap_mb), iterations=3,
                        num_partitions=4)


def test_table5_micro():
    def scenario():
        out = {}
        for app, runner, small, large in (("LR", _lr, 4, 64),
                                          ("PR", _pr, 2.5, 32)):
            for heap_label, heap_mb in (("small", small),
                                        ("large", large)):
                for mode in MODES:
                    out[(app, heap_label, mode)] = runner(mode, heap_mb)
        return out

    out = scenario()

    body = []
    for (app, heap, mode), run in out.items():
        body.append([app, heap, mode.value, run.wall_s, run.gc_s])
    costs = SerializerCosts()
    table = format_table(
        "Table 5: single-machine microbenchmark",
        ["app", "heap", "mode", "exec(s)", "gc(s)"], body)
    footer = format_table(
        "Per-object serialization costs (ms, simulated)",
        ["operation", "Deca", "Kryo"],
        [["serialize", costs.deca_write_per_object_ms,
          costs.kryo_ser_per_object_ms],
         ["deserialize", costs.deca_read_per_object_ms,
          costs.kryo_deser_per_object_ms]])
    print(table)
    print(footer)
    write_result("table5_micro", table + "\n\n" + footer)

    # Large heap, LR: Deca ~= Spark; SparkSer pays deserialization.
    lr_large = {mode: out[("LR", "large", mode)] for mode in MODES}
    assert lr_large[ExecutionMode.DECA].wall_s <= \
        1.15 * lr_large[ExecutionMode.SPARK].wall_s
    assert lr_large[ExecutionMode.SPARK_SER].wall_s > \
        1.5 * lr_large[ExecutionMode.SPARK].wall_s

    # Small heap, LR: Spark is GC-bound; Deca keeps GC near zero.
    lr_small = {mode: out[("LR", "small", mode)] for mode in MODES}
    assert lr_small[ExecutionMode.SPARK].gc_s > \
        5 * lr_small[ExecutionMode.DECA].gc_s
    assert lr_small[ExecutionMode.SPARK].wall_s > \
        2 * lr_small[ExecutionMode.DECA].wall_s

    # PR, large heap: Deca beats Spark even without GC pressure (no boxed
    # access, no shuffle serialization).
    pr_large = {mode: out[("PR", "large", mode)] for mode in MODES}
    assert pr_large[ExecutionMode.DECA].wall_s < \
        pr_large[ExecutionMode.SPARK].wall_s

    # Kryo deserialization is several times its serialization; Deca reads
    # are free.
    assert costs.kryo_deser_per_object_ms > 5 * costs.kryo_ser_per_object_ms
    assert costs.deca_read_per_object_ms == 0.0
