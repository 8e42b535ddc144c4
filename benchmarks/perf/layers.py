"""From spans, counters and probes to the named per-layer metrics.

The names are the ones ``BENCHMARK.json`` lists under ``per_layer``; a
layer is a module under ``src/repro``.  ``*_self_s`` sums span self time
over the traced phase (the job, plus — for ``sql-suite`` — one traced
rebuild of the engine so that ``cache_table`` and ``plan_sql_layout``
show), counts come from the engine's public counters, and ``*_ns`` /
``*_us`` come from :mod:`.probes`.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

Totals = dict[str, dict[str, float]]


def _sum(totals: Totals, field: str, *names: str) -> float:
    return sum(totals[name][field] for name in names if name in totals)


def _layer(totals: Totals, field: str, layer: str) -> float:
    prefix = layer + "."
    return sum(entry[field] for name, entry in totals.items()
               if name.startswith(prefix))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation past the sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def derive(totals: Totals, span_counters: dict[str, int],
           job_counters: dict[str, float], probes: dict[str, float],
           extras: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    out: dict[str, float] = dict(probes)
    out.update(job_counters)

    out["memory.page.append_calls"] = _sum(
        totals, "calls", "memory.page.append_record")
    out["memory.page.append_self_s"] = _sum(
        totals, "self_s", "memory.page.append_record")
    out["memory.page.scan_self_s"] = _sum(
        totals, "self_s", "memory.page.records", "memory.page.scan")
    out["memory.page.records_scanned"] = _sum(
        totals, "items", "memory.page.scan")
    out["memory.unified.calls"] = _layer(totals, "calls", "memory.unified")
    out["memory.unified.self_s"] = _layer(totals, "self_s", "memory.unified")

    out["memory.tier.swap_out_self_s"] = _sum(
        totals, "self_s", "memory.tier.swap_out")
    out["memory.tier.swap_in_self_s"] = _sum(
        totals, "self_s", "memory.tier.swap_in")
    tier_out_busy = _sum(totals, "busy_s", "memory.tier.swap_out")
    out["memory.tier.swap_out_mb_s"] = (
        job_counters["memory.tier.bytes_moved_out"] / 1e6 / tier_out_busy
        if tier_out_busy > 0 else 0.0)

    out["spark.cache.put_self_s"] = _sum(totals, "self_s", "spark.cache.put")
    out["spark.cache.read_self_s"] = _sum(
        totals, "self_s", "spark.cache.read_records", "spark.cache.get")
    out["spark.cache.swap_self_s"] = _sum(
        totals, "self_s", "spark.cache.swap_out", "spark.cache.swap_in")
    resident = span_counters.get("spark.cache.reads_resident", 0)
    reads = resident + span_counters.get("spark.cache.reads_cold", 0)
    out["spark.cache.resident_read_ratio"] = (
        resident / reads if reads else 0.0)

    out["spark.shuffle.write_self_s"] = _sum(
        totals, "self_s", "spark.shuffle.write_all", "spark.shuffle.flush",
        "spark.shuffle.spill")
    out["spark.shuffle.read_self_s"] = _sum(
        totals, "self_s", "spark.shuffle.read_reduce_partition")
    out["spark.shuffle.records_written"] = span_counters.get(
        "spark.shuffle.records_written", 0)

    out["spark.measure.calls"] = _layer(totals, "calls", "spark.measure")
    out["spark.measure.self_s"] = _layer(totals, "self_s", "spark.measure")
    out["jvm.heap.allocate_calls"] = _sum(
        totals, "calls", "jvm.heap.allocate")
    out["jvm.heap.self_s"] = _layer(totals, "self_s", "jvm.heap")

    sim_ms = job_counters["simtime.wall_ms"]
    out["simtime.real_per_sim"] = (
        extras["baseline_wall_s"] * 1000.0 / sim_ms if sim_ms > 0 else 0.0)
    out["spark.scheduler.self_s"] = _sum(
        totals, "self_s", "spark.scheduler.run_job")
    out["spark.rdd.self_s"] = _layer(totals, "self_s", "spark.rdd")

    out["exec.mp.stage_self_s"] = _sum(
        totals, "self_s", "exec.mp.run_map_stage",
        "exec.mp.run_result_stage")
    out["exec.mp.worker_cpu_s"] = extras["worker_cpu_s"]
    out["exec.mp.sim_reference_wall_s"] = extras["sim_reference_wall_s"]
    out["exec.shm.pack_self_s"] = _sum(
        totals, "self_s", "exec.shm.pack_records_segment")
    out["exec.shm.attach_self_s"] = _sum(
        totals, "self_s", "exec.shm.attach_page_group")

    out["core.optimizer.plans"] = _layer(totals, "calls", "core.optimizer")
    out["core.optimizer.plan_self_s"] = _layer(
        totals, "self_s", "core.optimizer")

    query_ms = extras["query_ms"]
    for name in ("scan", "filter", "groupby", "topk"):
        samples = query_ms.get(name, [])
        out[f"sql.engine.{name}_ms"] = (
            statistics.median(samples) if samples else 0.0)
    out["sql.engine.suite_pass_p90_ms"] = percentile(extras["pass_ms"], 0.90)
    out["sql.engine.cache_table_s"] = extras["open_s"]
    out["sql.columnar.view_self_s"] = _layer(totals, "self_s", "sql.columnar")

    out["obs.tracer.emit_self_s"] = _sum(
        totals, "self_s", "obs.tracer.emit")
    out["data.generate_s"] = extras["generate_s"]
    out["py.gc_pause_s"] = extras["gc_pause_s"]
    out["py.gc_collections"] = extras["gc_collections"]
    out["py.tracemalloc_peak_mb"] = extras["tracemalloc_peak_mb"]
    out["trace.overhead_frac"] = (
        extras["traced_wall_s"] / extras["baseline_wall_s"] - 1.0
        if extras["baseline_wall_s"] > 0 else 0.0)
    return out


def layer_shares(totals: Totals, job_busy_s: float) -> dict[str, float]:
    """Self time per layer as a share of the traced job's span (for the
    table in the result file; not a named metric).  Worker processes run
    beside the driver, so the shares of ``pr-mp`` sum to more than 1."""
    shares: dict[str, float] = {}
    for name, entry in totals.items():
        layer = name.rsplit(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"]
    if job_busy_s > 0:
        shares = {layer: value / job_busy_s
                  for layer, value in shares.items()}
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
