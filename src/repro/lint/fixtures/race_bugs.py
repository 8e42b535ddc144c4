"""Seeded concurrency bugs — WRONG ON PURPOSE.

One minimal buggy function per DECA40x rule.  Each function does two
things at once:

* **statically** it contains exactly the protocol violation its rule
  describes, so ``repro.lint.race`` fires exactly one finding on it;
* **dynamically** it annotates a live :class:`~repro.obs.vclock.
  VClockChecker` (always passed as the ``vclock`` parameter — the
  static lowerer skips ``vclock``/``ledger`` receivers, exactly like
  the borrow fixtures skip ledger instrumentation) so the runtime
  sanitizer trips the matching slug when the function is executed.

``repro.bench sanitize`` drives every function here (through
:mod:`repro.lint.fixtures.drivers`) against real engine objects (a shm
segment, a mmap tier, an arena stub) and asserts the per-rule counters;
``tests/test_lint_race.py`` asserts the static findings.  None of this
module is imported by the engine.
"""

from __future__ import annotations

import pickle
import threading
from multiprocessing import shared_memory
from typing import Any

from ...exec.shm import sweep_segments, unlink_segment
from ...obs.vclock import VClockChecker

#: Handles parked here survive the fixture call (and are closed by
#: :func:`reset`), so segment mappings outlive their misuse on purpose.
SINK: list[Any] = []


def reset() -> None:
    """Close every parked handle so fixtures can run repeatedly."""
    for item in SINK:
        close = getattr(item, "close", None)
        if close is not None:
            try:
                close()
            except (BufferError, OSError):
                pass
    SINK.clear()


# -- DECA401 ----------------------------------------------------------------
def unlink_races_attach(vclock: VClockChecker, name: str) -> None:
    """WRONG: recycles a deterministic segment name while a concurrent
    attacher (forked before the unlink) maps it — the TOCTOU window."""
    vclock.note_create("segment", name)
    vclock.fork("attacker")
    unlink_segment(name)
    vclock.note_reclaim("segment", name)
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        seg = None
    vclock.note_attach("segment", name, actor="attacker")
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

    def release_unlocked(self, vclock: VClockChecker, name: str) -> None:
        count = self._refs.get(name, 0)
        self._refs[name] = count - 1
        vclock.note_refdec(name, locked=False)


# -- DECA404 ----------------------------------------------------------------
def stale_pool_write(vclock: VClockChecker, arena: Any,
                     queue: Any) -> None:
    """WRONG: samples the pool level, blocks on the result queue, then
    feeds the stale sample back into a pool transition."""
    version = vclock.pool_read("execution")
    level = arena.free_bytes
    queue.get()
    vclock.pool_write("execution")  # the concurrent evictor's write
    arena.execution_acquire(level)
    vclock.pool_write("execution", based_on=version)


# -- DECA405 ----------------------------------------------------------------
def consume_before_join(vclock: VClockChecker, outcome: Any,
                        worker: Any) -> Any:
    """WRONG: reads the result bytes before the wave barrier — the
    producing worker may still be writing them."""
    records = pickle.loads(outcome.result_blob)
    vclock.note_result_consumed("t0")
    worker.join()
    return records


# -- DECA406 ----------------------------------------------------------------
def sweep_live_worker(vclock: VClockChecker, prefix: str) -> None:
    """WRONG: sweeps an attempt's segments with no death confirmation —
    the owning worker is still live."""
    sweep_segments(prefix)
    vclock.note_sweep(prefix, owner="w-live")


# -- DECA407 ----------------------------------------------------------------
def respill_inflight_victim(vclock: VClockChecker, store: Any,
                            key: str) -> None:
    """WRONG: re-selects and swaps a victim with no in-flight guard —
    a re-entrant eviction drains the same pages twice."""
    victim = store.pick_victim()
    store.swap_out(victim)
    vclock.swap_begin(key)
    vclock.note_victim(key)
    vclock.swap_end(key)


# -- DECA408 ----------------------------------------------------------------
def write_through_attach(vclock: VClockChecker, name: str,
                         payload: bytes) -> None:
    """WRONG: writes through a view attached read-only — the write
    races every other attacher of the same physical bytes."""
    seg = shared_memory.SharedMemory(name=name)
    vclock.adopt_readonly("segment", name, seg.buf)
    seg.buf[0:len(payload)] = payload
    vclock.verify_readonly("segment", name)
    SINK.append(seg)


# -- DECA409 ----------------------------------------------------------------
def relay_unanchored(vclock: VClockChecker, tracer: Any, event: Any,
                     anchor_ms: float) -> None:
    """WRONG: forwards a worker-local timestamp onto the driver
    timeline without re-anchoring it to the stage start."""
    tracer.emit(event)
    vclock.note_relay(event.ts_ms, anchor_ms)


# -- DECA410 ----------------------------------------------------------------
def double_grant(vclock: VClockChecker, arena: Any,
                 task_id: str) -> None:
    """WRONG: grants the same task slot twice with no release — both
    holders charge the same fair-share slot."""
    arena.grant(task_id)
    vclock.note_grant(task_id)
    arena.grant(task_id)
    vclock.note_grant(task_id)
