"""Structured event tracing on the simulated clock.

Every engine layer emits :class:`TraceEvent` records into one per-run
:class:`Tracer`: the scheduler opens job/stage spans, executors close
task-attempt spans, the heap reports GC pauses, the cache reports block
swaps and the shuffle reports spills and fetches.  Events carry only
values derived from the simulated clocks and seeded RNGs, so two runs
with the same seed produce byte-identical traces — the property the
determinism CI job asserts on the exported JSON.

The heap profiler is not a consumer of this buffer: it samples the heap
through :meth:`~repro.jvm.heap.SimHeap.add_gc_listener`, the same GC
events the executor forwards here as ``gc:*`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Synthetic "process id" for driver-side events (job/stage spans).
#: Executor events use ``pid = executor_id + 1``.
DRIVER_PID = 0

#: Chrome trace_event phase codes used here.
PHASE_COMPLETE = "X"   # a span: ts + dur
PHASE_INSTANT = "i"    # a point event
PHASE_METADATA = "M"   # process naming etc. (added by the exporter)


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the simulated timeline.

    ``ts_ticks``/``dur_ticks`` are simulated ticks; the Chrome exporter
    converts them to the microseconds ``about://tracing`` expects.
    """

    name: str
    category: str          # "job" | "stage" | "task" | "gc" | "cache" | ...
    phase: str             # PHASE_COMPLETE or PHASE_INSTANT
    ts_ticks: int
    dur_ticks: int = 0
    pid: int = DRIVER_PID
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end_ticks(self) -> int:
        return self.ts_ticks + self.dur_ticks


class Tracer:
    """Collects a run's trace events in emission order.

    Emission order is itself deterministic (the simulation is
    single-threaded), so the buffer — and everything exported from it —
    is reproducible bit-for-bit under a fixed seed.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    # -- emission -------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def complete(self, name: str, category: str, ts_ticks: int,
                 dur_ticks: int, pid: int = DRIVER_PID, tid: int = 0,
                 **args: Any) -> None:
        """Emit a finished span (Chrome "X" event)."""
        self.emit(TraceEvent(name=name, category=category,
                             phase=PHASE_COMPLETE, ts_ticks=ts_ticks,
                             dur_ticks=dur_ticks, pid=pid, tid=tid,
                             args=args))

    def instant(self, name: str, category: str, ts_ticks: int,
                pid: int = DRIVER_PID, tid: int = 0, **args: Any) -> None:
        """Emit a point event (Chrome "i" event)."""
        self.emit(TraceEvent(name=name, category=category,
                             phase=PHASE_INSTANT, ts_ticks=ts_ticks,
                             pid=pid, tid=tid, args=args))

    # -- queries --------------------------------------------------------------
    def by_category(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    @property
    def end_ticks(self) -> int:
        """Timestamp of the latest event end (the traced wall time)."""
        return max((e.end_ticks for e in self.events), default=0)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"Tracer({len(self.events)} events)"
