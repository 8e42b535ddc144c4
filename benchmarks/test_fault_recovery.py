"""Fault-recovery benchmark: WordCount under injected failures.

The paper's memory-management claims only matter if the engine keeps
Spark's fault-tolerance contract (§2.1: RDD lineage makes lost partitions
recomputable).  This benchmark runs the smallest Fig. 8 WordCount point
with the standard fault plan — probabilistic task kills plus one scripted
executor crash — and reports what recovery cost:

* correctness — the faulted run's counts equal the fault-free baseline's;
* determinism — two runs with the same fault seed serialize byte-identical
  metrics JSON (the property the CI determinism job asserts);
* overhead — wall-time paid for retries, backoff, the executor restart
  and lineage re-execution.

The machine-readable trajectory lands in
``benchmarks/results/BENCH_fault_recovery.json``.
"""

import json

from repro.config import ExecutionMode
from repro.bench.harness import fault_recovery_faults, \
    run_fault_recovery_point
from repro.bench.report import format_table, write_json_result, \
    write_result


def test_fault_recovery_wc():
    """WC completes correctly and deterministically under faults."""

    def scenario():
        faults = fault_recovery_faults(seed=17, task_kill_prob=0.05)
        first = run_fault_recovery_point("50GB", "10M",
                                         ExecutionMode.SPARK,
                                         faults=faults)
        second = run_fault_recovery_point("50GB", "10M",
                                          ExecutionMode.SPARK,
                                          faults=faults)
        return first, second

    first, second = scenario()

    # Correctness: injected faults never change the answer.
    assert first.extra["correct"]
    assert second.extra["correct"]

    # The scripted executor crash happened and lineage was re-executed.
    recovery = first.extra["recovery"]
    assert recovery["executors_lost"] >= 1
    assert recovery["recomputed_partitions"] >= 1
    assert recovery["task_retries"] >= 1
    assert recovery["recovery_ms"] > 0.0

    # Recovery costs simulated time: the faulted run is slower than its
    # fault-free baseline.
    assert first.exec_s > first.extra["baseline_exec_s"]

    # Determinism: both runs serialize byte-identical metrics JSON.
    t1 = json.dumps(first.extra["trajectory"], sort_keys=True)
    t2 = json.dumps(second.extra["trajectory"], sort_keys=True)
    assert t1 == t2

    table = format_table(
        "Fault recovery: WC 50GB/10M under injected failures",
        ["metric", "value"],
        [["baseline exec(s)", first.extra["baseline_exec_s"]],
         ["faulted exec(s)", first.exec_s],
         ["overhead(s)", first.extra["recovery_overhead_s"]],
         *[[key, value] for key, value in recovery.items()]])
    print(table)
    write_result("fault_recovery", table)
    write_json_result("BENCH_fault_recovery", {
        "benchmark": "fault_recovery",
        "app": "WC",
        "point": first.label,
        "mode": first.mode,
        "seed": 17,
        "task_kill_prob": 0.05,
        "correct": first.extra["correct"],
        "deterministic": t1 == t2,
        "baseline_exec_s": round(first.extra["baseline_exec_s"], 6),
        "faulted_exec_s": round(first.exec_s, 6),
        "recovery_overhead_s": round(
            first.extra["recovery_overhead_s"], 6),
        "recovery": recovery,
        "trajectory": first.extra["trajectory"],
    })
