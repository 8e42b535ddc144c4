"""Tests for :mod:`repro.obs`: spans, exporters, byte-determinism.

The trace workload (``run_trace_point``) is a WordCount sized so one run
exercises every traced code path: cache swap-outs, shuffle spills, GC
pauses, remote fetches, and two jobs' worth of job/stage/task spans.
"""

import json

import pytest

from repro.bench.harness import run_trace_point
from repro.config import MB, DecaConfig, FaultConfig, ExecutionMode
from repro.jvm.heap import SimHeap
from repro.jvm.objects import Lifetime
from repro.obs import (
    DRIVER_PID,
    TraceEvent,
    Tracer,
    chrome_trace,
    utilization_summary,
    write_chrome_trace,
)
from repro.simtime import TICKS_PER_MS, SimClock
from repro.spark.profiler import HeapProfiler


def trace_wordcount(faults=None):
    row = run_trace_point(ExecutionMode.SPARK, faults=faults)
    return row.extra["run"].ctx.tracer


@pytest.fixture(scope="module")
def tracer():
    """One traced run, shared by the read-only assertions below."""
    return trace_wordcount()


class TestTracerUnit:
    def test_emit_preserves_order(self):
        tracer = Tracer()
        tracer.instant("a", "cat", ts_ticks=1)
        tracer.complete("b", "cat", ts_ticks=2, dur_ticks=3)
        assert [e.name for e in tracer.events] == ["a", "b"]
        assert len(tracer) == 2

    def test_helpers_set_phase_and_args(self):
        tracer = Tracer()
        tracer.complete("span", "task", ts_ticks=TICKS_PER_MS,
                        dur_ticks=2 * TICKS_PER_MS, pid=3, tid=1, foo=7)
        tracer.instant("point", "cache", ts_ticks=5 * TICKS_PER_MS, bar="x")
        span, point = tracer.events
        assert span.phase == "X" and span.args == {"foo": 7}
        assert span.end_ticks == 3 * TICKS_PER_MS
        assert point.phase == "i" and point.args == {"bar": "x"}

    def test_by_category_and_end_ms(self):
        tracer = Tracer()
        tracer.complete("a", "task", ts_ticks=0, dur_ticks=10 * TICKS_PER_MS)
        tracer.instant("b", "gc", ts_ticks=4 * TICKS_PER_MS)
        assert [e.name for e in tracer.by_category("gc")] == ["b"]
        assert tracer.end_ticks == 10 * TICKS_PER_MS
        tracer.clear()
        assert len(tracer) == 0 and tracer.end_ticks == 0


class TestTraceContents:
    def test_job_spans_on_driver(self, tracer):
        jobs = tracer.by_category("job")
        assert len(jobs) == 2  # count() then collect()
        assert all(e.pid == DRIVER_PID and e.phase == "X" and e.dur_ticks > 0
                   for e in jobs)

    def test_stage_spans_cover_both_jobs(self, tracer):
        stages = tracer.by_category("stage")
        assert len(stages) >= 3  # result, shuffle-map, result
        assert all(e.pid == DRIVER_PID and e.dur_ticks > 0 for e in stages)

    def test_task_spans_carry_attempt_metadata(self, tracer):
        tasks = tracer.by_category("task")
        assert len(tasks) >= 8
        for event in tasks:
            assert event.pid != DRIVER_PID
            assert event.args["status"] == "success"
            assert event.args["gc_pause_ms"] >= 0.0
            assert {"stage_id", "task_id", "attempt"} <= event.args.keys()

    def test_gc_events_tag_executor_and_occupancy(self, tracer):
        gcs = tracer.by_category("gc")
        assert gcs, "the trace workload must trigger at least one GC"
        for event in gcs:
            assert event.args["executor_id"] == event.pid - 1
            assert event.args["heap_used_bytes"] >= 0
            assert event.args["pause_ms"] >= 0.0

    def test_spill_and_swap_events_present(self, tracer):
        spills = [e for e in tracer.events if e.name == "shuffle:spill"]
        swaps = [e for e in tracer.events if e.name == "cache:swap-out"]
        assert spills and all(e.args["spilled_bytes"] > 0 for e in spills)
        assert swaps and all(e.args["released_bytes"] > 0 for e in swaps)

    def test_fetch_and_io_events_present(self, tracer):
        fetches = [e for e in tracer.events if e.name == "shuffle:fetch"]
        assert fetches
        assert any(e.args["remote"] for e in fetches)
        assert tracer.by_category("io.disk")
        assert tracer.by_category("io.net")

    def test_events_stay_inside_traced_wall_time(self, tracer):
        wall = tracer.end_ticks
        assert all(0 <= e.ts_ticks and e.end_ticks <= wall
                   for e in tracer.events)


class TestChromeExport:
    def test_document_structure(self, tracer):
        doc = chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > len(tracer.events)  # + metadata

    def test_process_names_for_driver_and_executors(self, tracer):
        doc = chrome_trace(tracer)
        names = {row["pid"]: row["args"]["name"]
                 for row in doc["traceEvents"] if row["ph"] == "M"}
        assert names[DRIVER_PID] == "driver"
        assert names[1] == "executor-0"
        assert names[2] == "executor-1"

    def test_timestamps_are_microseconds(self, tracer):
        doc = chrome_trace(tracer)
        job = next(row for row in doc["traceEvents"]
                   if row.get("cat") == "job")
        source = tracer.by_category("job")[0]
        assert job["ts"] == round(source.ts_ticks / 10 ** 9, 3)
        assert job["dur"] == round(source.dur_ticks / 10 ** 9, 3)

    def test_phase_specific_fields(self, tracer):
        doc = chrome_trace(tracer)
        for row in doc["traceEvents"]:
            assert row["ph"] in ("X", "i", "M")
            if row["ph"] == "X":
                assert row["dur"] >= 0
            if row["ph"] == "i":
                assert row["s"] == "t"

    def test_write_chrome_trace_round_trips(self, tracer, tmp_path):
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == chrome_trace(tracer)


class TestDeterminism:
    def test_same_seed_runs_export_identical_bytes(self, tracer):
        second = trace_wordcount()
        first_bytes = json.dumps(chrome_trace(tracer), indent=2,
                                 sort_keys=True)
        second_bytes = json.dumps(chrome_trace(second), indent=2,
                                  sort_keys=True)
        assert first_bytes == second_bytes


class TestFaultTracing:
    def test_aborted_attempts_appear_as_task_spans(self):
        faults = FaultConfig(seed=17, task_kill_prob=0.08)
        tracer = trace_wordcount(faults=faults)
        statuses = {e.args["status"] for e in tracer.by_category("task")}
        assert "success" in statuses
        aborted = statuses - {"success"}
        assert aborted, "the seeded fault run must abort at least one attempt"


class TestUtilizationSummary:
    def test_lists_every_executor_with_breakdown(self, tracer):
        text = utilization_summary(tracer, title="util")
        assert text.startswith("util\n")
        assert "executor-0" in text and "executor-1" in text
        assert "gc(ms)" in text and "network(ms)" in text

    def test_empty_tracer_renders_header_only(self):
        text = utilization_summary(Tracer())
        assert "executor-" not in text


class TestProfilerConsumesGcStream:
    def make_heap(self):
        clock = SimClock()
        return SimHeap(DecaConfig(heap_bytes=4 * MB), clock), clock

    def test_sample_pause_matches_heap_stats(self):
        heap, clock = self.make_heap()
        profiler = HeapProfiler(heap, clock, period_ms=10.0)
        group = heap.new_group("g", Lifetime.TEMPORARY)
        for _ in range(8):
            heap.allocate(group, 2000, 1 * MB)
        assert heap.stats.pause_ms > 0, "allocations must have triggered GC"
        profiler.force_sample()
        assert profiler.samples[-1].gc_pause_ms == \
            pytest.approx(heap.stats.pause_ms)

    def test_pre_attach_pauses_still_counted(self):
        heap, clock = self.make_heap()
        group = heap.new_group("g", Lifetime.TEMPORARY)
        for _ in range(8):
            heap.allocate(group, 2000, 1 * MB)
        before_attach = heap.stats.pause_ms
        assert before_attach > 0
        profiler = HeapProfiler(heap, clock, period_ms=10.0)
        profiler.force_sample()
        assert profiler.samples[-1].gc_pause_ms == \
            pytest.approx(before_attach)

    def test_gc_listener_sees_events(self):
        heap, _ = self.make_heap()
        seen = []
        heap.add_gc_listener(seen.append)
        group = heap.new_group("g", Lifetime.TEMPORARY)
        for _ in range(8):
            heap.allocate(group, 2000, 1 * MB)
        assert seen
        assert all(isinstance(e.pause_ms, float) for e in seen)


class TestTraceEventBasics:
    def test_default_event_is_driver_scoped(self):
        event = TraceEvent(name="n", category="c", phase="i",
                           ts_ticks=TICKS_PER_MS)
        assert event.pid == DRIVER_PID
        assert event.end_ticks == TICKS_PER_MS
