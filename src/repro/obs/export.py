"""Trace exporters: Chrome ``trace_event`` JSON and text utilization.

``chrome_trace`` renders a :class:`~repro.obs.tracer.Tracer` buffer as the
JSON object Chrome's ``about://tracing`` and Perfetto load directly; the
driver and every executor appear as separate named processes.

``utilization_summary`` folds the same event stream into a per-executor
time breakdown (compute vs GC vs disk vs network vs idle) — the textual
companion of the paper's Fig. 11 cost bars.
"""

from __future__ import annotations

import json
from typing import Any

from ..simtime import TICKS_PER_MS, ticks_to_ms
from .tracer import DRIVER_PID, PHASE_METADATA, TraceEvent, Tracer

#: Chrome expects microseconds.
_TICKS_PER_US = TICKS_PER_MS // 1000


def _round(value: float, digits: int = 3) -> float:
    """Stable rounding so exported floats format identically across runs."""
    return round(value, digits)


def _event_json(event: TraceEvent) -> dict[str, Any]:
    row: dict[str, Any] = {
        "name": event.name,
        "cat": event.category,
        "ph": event.phase,
        "ts": _round(event.ts_ticks / _TICKS_PER_US),
        "pid": event.pid,
        "tid": event.tid,
    }
    if event.phase == "X":
        row["dur"] = _round(event.dur_ticks / _TICKS_PER_US)
    if event.phase == "i":
        row["s"] = "t"  # thread-scoped instant
    if event.args:
        row["args"] = {
            key: (_round(value, 6) if isinstance(value, float) else value)
            for key, value in sorted(event.args.items())
        }
    return row


def _process_names(tracer: Tracer) -> list[dict[str, Any]]:
    pids = sorted({e.pid for e in tracer.events})
    rows = []
    for pid in pids:
        name = "driver" if pid == DRIVER_PID else f"executor-{pid - 1}"
        rows.append({"name": "process_name", "cat": "__metadata",
                     "ph": PHASE_METADATA, "ts": 0, "pid": pid, "tid": 0,
                     "args": {"name": name}})
    return rows


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The tracer buffer as a Chrome ``trace_event`` JSON object."""
    events = _process_names(tracer)
    events.extend(_event_json(e) for e in tracer.events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "clock": "simulated"},
    }


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Serialize :func:`chrome_trace` to *path* (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Utilization summary
# ---------------------------------------------------------------------------

def _format_table(title: str, header: list[str],
                  rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title),
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(cell.ljust(widths[i])
                           for i, cell in enumerate(row)) for row in rows)
    return "\n".join(lines)


def utilization_summary(tracer: Tracer, title: str = "utilization") -> str:
    """Per-executor time breakdown derived from the event stream.

    Tasks run sequentially on each simulated executor, so task-span
    durations add up to its busy time; GC, disk and network event
    durations (which occur inside tasks) are carved out of it and the
    remainder is attributed to compute.  Idle is the traced wall time not
    covered by any task span — barrier waits at stage boundaries.
    """
    pids = sorted({e.pid for e in tracer.events if e.pid != DRIVER_PID})
    wall = tracer.end_ticks
    header = ["executor", "wall(ms)", "compute(ms)", "gc(ms)",
              "disk(ms)", "network(ms)", "idle(ms)", "busy%"]
    rows = []
    for pid in pids:
        events = [e for e in tracer.events if e.pid == pid]
        task, gc, disk, net = (
            sum(e.dur_ticks for e in events if e.category == category)
            for category in ("task", "gc", "io.disk", "io.net"))
        compute = max(0, task - gc - disk - net)
        idle = max(0, wall - task)
        busy = 100.0 * task / wall if wall > 0 else 0.0
        rows.append([f"executor-{pid - 1}",
                     *(f"{ticks_to_ms(ticks):.3f}" for ticks in
                       (wall, compute, gc, disk, net, idle)),
                     f"{busy:.1f}%"])
    return _format_table(title, header, rows)
