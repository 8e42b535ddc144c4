"""Isolated probes of the per-record public functions.

The traced job cannot wrap ``Schema.unpack_from`` or an SUDT property
without paying more for the wrapper than for the call, so the
per-record layers are measured here instead: each probe calls one public
function in a tight loop on fixed synthetic input (a 10-dimension
``LabeledPoint``, the LR cache record) and reports the median of three
calibrated repeats per call.  Inputs do not depend on the workload or
the seed, so a probe moves only when its layer's code does.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable

from repro.apps.logistic_regression import labeled_point_udt_info
from repro.exec.shm import (SEGMENT_PREFIX, attach_page_group,
                            pack_records_segment, unlink_segment)
from repro.jvm.heap import SimHeap
from repro.jvm.objects import Lifetime
from repro.memory.page import PageGroup
from repro.memory.sudt import bind_accessor
from repro.simtime import SimClock
from repro.spark.context import DecaContext
from repro.spark.measure import measure_generic, measure_typed

from . import calibration
from .calibration import Sample
from .workloads import WORKLOADS, build_config

_DIMENSIONS = 10
_POINT = (1.0, tuple(0.25 * i - 1.0 for i in range(_DIMENSIONS)))
_REPEATS = 3


def _per_call(run: Callable[[], int],
              prepare: Callable[[], Any] | None = None) -> float:
    """Reference seconds per call: *run* does some calls and returns how
    many; the median of a few repeats, each between two calibrations
    (*prepare* runs untimed before each repeat)."""
    samples = []
    after = calibration.speed()
    for _ in range(_REPEATS):
        if prepare is not None:
            prepare()
        before = after
        start = time.perf_counter()
        calls = run()
        elapsed = time.perf_counter() - start
        after = calibration.speed()
        samples.append(Sample(elapsed, 0.0, before, after).factor(1.0)
                       * elapsed / calls)
    return statistics.median(samples)


def _loop(fn: Callable[[], Any], calls: int) -> Callable[[], int]:
    def run() -> int:
        for _ in range(calls):
            fn()
        return calls
    return run


def run_probes(scale: float = 1.0) -> dict[str, float]:
    """Every ``*_ns`` / ``*_us`` per-layer metric, by name."""
    calls = max(200, int(20_000 * scale))
    config, _ = build_config(WORKLOADS["lr-cache-scan"].settings)
    ctx = DecaContext(config)
    info = labeled_point_udt_info(_DIMENSIONS)
    rdd = ctx.parallelize([_POINT], 1).map(lambda rec: rec,
                                           udt_info=info).cache()
    plan = ctx.plan_cache(rdd)
    schema = plan.schema
    value = plan.encode(_POINT)
    size = schema.size_of(value)
    buffer = bytearray(size)
    schema.pack_into(buffer, 0, value)
    accessor = bind_accessor(schema, buffer, 0)
    out: dict[str, float] = {}

    out["memory.layout.pack_ns"] = 1e9 * _per_call(
        _loop(lambda: schema.pack_into(buffer, 0, value), calls))
    out["memory.layout.unpack_ns"] = 1e9 * _per_call(
        _loop(lambda: schema.unpack_from(buffer, 0), calls))
    out["memory.sudt.field_read_ns"] = 1e9 * _per_call(
        _loop(lambda: accessor.label, calls))

    def write_label() -> None:
        accessor.label = 0.5

    out["memory.sudt.field_write_ns"] = 1e9 * _per_call(
        _loop(write_label, calls))

    records = max(100, calls // 4)

    def append() -> int:
        group = PageGroup("probe:append", config.page_bytes)
        for _ in range(records):
            group.append_record(schema, value)
        return records

    out["memory.page.append_ns"] = 1e9 * _per_call(append)
    filled = PageGroup("probe:scan", config.page_bytes)
    for _ in range(records):
        filled.append_record(schema, value)

    def scan() -> int:
        for _ in filled.scan(schema):
            pass
        return records

    out["memory.page.scan_ns"] = 1e9 * _per_call(scan)
    out["spark.measure.typed_ns"] = 1e9 * _per_call(
        _loop(lambda: measure_typed(info.udt, value), calls))
    out["spark.measure.generic_ns"] = 1e9 * _per_call(
        _loop(lambda: measure_generic(("word", 1)), calls))

    heap = SimHeap(config, SimClock(), "probe")
    temporaries = heap.new_group("probe:temp", Lifetime.TEMPORARY)
    # Amortizes the minor collections a stream of small objects causes.
    out["jvm.heap.allocate_ns"] = 1e9 * _per_call(
        _loop(lambda: heap.allocate(temporaries, 1, 48), calls))

    values = [value] * 256
    rounds = max(5, calls // 400)
    names = (f"{SEGMENT_PREFIX}-{os.getpid()}-probe-{i}"
             for i in range(10 ** 9))
    live: list[tuple[Any, Any]] = []

    def pack() -> int:
        live.extend((pack_records_segment(next(names), schema, values), None)
                    for _ in range(rounds))
        return rounds

    def attach() -> int:
        live[:] = [(ref, attach_page_group(ref)) for ref, _ in live]
        return rounds

    def release() -> None:
        for ref, group in live:
            if group is not None:
                group.new_page_info().close()   # last reference: detaches
            unlink_segment(ref.name)
        live.clear()

    out["exec.shm.pack_us"] = 1e6 * _per_call(pack, prepare=release)
    out["exec.shm.attach_us"] = 1e6 * _per_call(
        attach, prepare=lambda: (release(), pack()))
    release()
    ctx.finish()
    return out
