"""Seeded concurrency bugs — WRONG ON PURPOSE.

One minimal buggy function per DECA40x rule.  Each function does two
things at once:

* **statically** it contains exactly the protocol violation its rule
  describes, so ``repro.lint.race`` fires exactly one finding on it if
  the rule keeps a static predicate (DECA401, 402, 404, 405) and none
  otherwise;
* **dynamically** it annotates a live
  :class:`~repro.obs.sanitizer.Sanitizer` (always passed as the
  ``sanitizer`` parameter — the static lowerers skip that receiver, in
  these fixtures as in the engine) so the runtime sanitizer trips the
  matching slug when the function is executed.

``repro.bench sanitize`` drives every function here (through
:mod:`repro.lint.fixtures.drivers`) against real engine objects (a shm
segment, a tracer, an arena stub) and asserts the per-rule counters;
``tests/test_lint_race.py`` asserts the static findings.  None of this
module is imported by the engine.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any

from ...exec.shm import SharedPageSegment, sweep_segments, unlink_segment
from ...obs.sanitizer import Sanitizer

#: Handles parked here survive the fixture call (and are closed by
#: :func:`reset`), so segment mappings outlive their misuse on purpose.
SINK: list[Any] = []


def reset() -> None:
    """Release every parked view and close every parked segment handle
    (views first: they pin the mapping) so fixtures can run repeatedly."""
    for item in SINK:
        try:
            (getattr(item, "release", None) or item.close)()
        except (BufferError, OSError):
            pass
    SINK.clear()


# -- DECA401 ----------------------------------------------------------------
def unlink_races_attach(sanitizer: Sanitizer, name: str) -> None:
    """WRONG: recycles a deterministic segment name while a concurrent
    attacher (forked before the unlink) maps it — the TOCTOU window."""
    sanitizer.create("segment", name)
    sanitizer.fork("attacker")
    unlink_segment(name)
    sanitizer.free("segment", name)
    try:
        seg = SharedPageSegment(name)
    except FileNotFoundError:
        seg = None
    sanitizer.export("segment", name, actor="attacker")
    if seg is not None:
        SINK.append(seg)


# -- DECA402 ----------------------------------------------------------------
class RacyRegistry:
    """WRONG ON PURPOSE: takes a lock on one mutation path but not the
    other, so two decrements can interleave and lose a count."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._refs: dict[str, int] = {}

    def register(self, name: str) -> None:
        with self._lock:
            self._refs[name] = 1

    def release_unlocked(self, sanitizer: Sanitizer, name: str) -> None:
        count = self._refs.get(name, 0)
        self._refs[name] = count - 1
        sanitizer.note_refdec(name, locked=False)


# -- DECA404 ----------------------------------------------------------------
def stale_pool_write(sanitizer: Sanitizer, arena: Any,
                     queue: Any) -> None:
    """WRONG: samples the pool level, blocks on the result queue, then
    feeds the stale sample back into a pool transition."""
    version = sanitizer.pool_read("execution")
    level = arena.free_bytes
    queue.get()
    sanitizer.pool_write("execution")  # the concurrent evictor's write
    arena.execution_acquire(level)
    sanitizer.pool_write("execution", based_on=version)


# -- DECA405 ----------------------------------------------------------------
def consume_before_join(sanitizer: Sanitizer, outcome: Any,
                        worker: Any) -> Any:
    """WRONG: reads the result bytes before the wave barrier — the
    producing worker may still be writing them."""
    records = pickle.loads(outcome.result_blob)
    sanitizer.note_result_consumed("t0")
    worker.join()
    return records


# -- DECA406 ----------------------------------------------------------------
def sweep_live_worker(sanitizer: Sanitizer, prefix: str) -> None:
    """WRONG: sweeps an attempt's segments with no death confirmation —
    the owning worker is still live."""
    sweep_segments(prefix)
    sanitizer.note_sweep(prefix, owner="w-live")


# -- DECA407 ----------------------------------------------------------------
def respill_inflight_victim(sanitizer: Sanitizer, store: Any,
                            key: str) -> None:
    """WRONG: re-selects and swaps a victim with no in-flight guard —
    a re-entrant eviction drains the same pages twice."""
    victim = store.pick_victim()
    store.swap_out(victim)
    sanitizer.swap_begin(key)
    sanitizer.note_victim(key)
    sanitizer.swap_end(key)


# -- DECA408 ----------------------------------------------------------------
def write_through_attach(sanitizer: Sanitizer, name: str,
                         payload: bytes) -> None:
    """WRONG: writes through a view attached read-only — the write
    races every other attacher of the same physical bytes."""
    seg = SharedPageSegment(name)
    view = seg.view(seg.nbytes)
    sanitizer.export("segment", name, [view], transient=False,
                     readonly=True)
    view[0:len(payload)] = payload
    sanitizer.verify_readonly("segment", name)
    SINK.extend((view, seg))


# -- DECA409 ----------------------------------------------------------------
def relay_unanchored(sanitizer: Sanitizer, tracer: Any, event: Any,
                     anchor_ticks: int) -> None:
    """WRONG: forwards a worker-local timestamp onto the driver
    timeline without re-anchoring it to the stage start."""
    tracer.emit(event)
    sanitizer.note_relay(event.ts_ticks, anchor_ticks)


# -- DECA410 ----------------------------------------------------------------
def double_grant(sanitizer: Sanitizer, arena: Any,
                 task_id: str) -> None:
    """WRONG: grants the same task slot twice with no release — both
    holders charge the same fair-share slot."""
    arena.grant(task_id)
    sanitizer.note_grant(task_id)
    arena.grant(task_id)
    sanitizer.note_grant(task_id)
