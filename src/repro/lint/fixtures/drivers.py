"""Drivers that run every seeded bug against a live runtime checker.

The fixtures in :mod:`.borrow_bugs` (DECA30x) and :mod:`.race_bugs`
(DECA40x) are minimal buggy interactions; each driver here owns the
setup its fixture needs (a pre-populated mmap tier, a registered shm
segment, a page group, an arena stub).  :data:`FIXTURES` is the one
``(rule, slug, drive)`` table and :func:`run_fixtures` the one runner,
behind ``python -m repro.bench sanitize`` and the tier-1 tests.

A separate module on purpose: the static checkers must keep reporting
exactly one finding per function of the two ``*_bugs`` modules, so
nothing but the bugs themselves lives there.
"""

from __future__ import annotations

import pickle
import queue
import tempfile
import types
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable

from ...exec.shm import SegmentRef, SharedPageSegment, ShmSegmentRegistry
from ...memory.page import PageGroup
from ...memory.provenance import ProvenanceLedger
from ...memory.tier import PageStoreTier
from ...obs.tracer import TraceEvent, Tracer
from ...obs.vclock import VClockChecker
from . import borrow_bugs, race_bugs

#: ``drive(checker, tmp)``: *tmp* is a scratch directory that outlives the
#: call; returns the views the runner must release before it goes away.
Drive = Callable[[Any, str], "Iterable[memoryview] | None"]


def _tier(tmp: str, name: str, group: str, ledger: Any = None) -> PageStoreTier:
    """A mmap tier holding one 64-byte extent under *group*."""
    tier = PageStoreTier(f"{tmp}/{name}.bin", ledger=ledger)
    tier.swap_out(group, [b"\xaa" * 64])
    return tier


# -- DECA30x: zero-copy lifetime bugs against a provenance ledger -----------

def drive_301(ledger, tmp):
    tier = _tier(tmp, "t301", "fx-uaf", ledger)
    held = [borrow_bugs.bug_use_after_free_extent(tier)]
    tier.close()
    return held


def drive_302(ledger, tmp):
    name = "repro-fx-302"
    registry = ShmSegmentRegistry(ledger=ledger)
    seed = SharedPageSegment(name, 4096, create=True)
    registry.register(SegmentRef(name=name, nbytes=4096, count=0))
    held = [borrow_bugs.bug_use_after_unlink_segment(registry, ledger, name)]
    seed.close()
    return held


def drive_303(ledger, tmp):
    tier = _tier(tmp, "t303", "fx-df", ledger)
    borrow_bugs.bug_double_free(tier)
    tier.close()


def drive_304(ledger, tmp):
    tier = _tier(tmp, "t304", "fx-esc", ledger)
    group = PageGroup("fx-esc", page_bytes=4096)
    group.ledger = ledger
    borrow_bugs.bug_view_escapes_adoption(tier, group, ledger)


def drive_305(ledger, tmp):
    tier = _tier(tmp, "t305", "fx-remap", ledger)
    scratch = types.SimpleNamespace(resize=lambda nbytes: None)
    return borrow_bugs.bug_remap_invalidates_export(tier, ledger, scratch)


def drive_306(ledger, tmp):
    tier = _tier(tmp, "t306", "fx-leak", ledger)
    return borrow_bugs.bug_leak_at_finish(tier, stop_early=True)


def drive_308(ledger, tmp):
    group = PageGroup("fx-drain", page_bytes=4096)
    group.append_bytes(b"\xaa" * 48)
    group.ledger = ledger
    borrow_bugs.bug_unreleased_drain_copy(group, ledger)


# -- DECA40x: protocol races against a vector-clock checker -----------------
# Real engine objects where the protocol needs them (a mmap tier, a shm
# segment, a tracer), stubs where only the protocol edge matters.

def drive_401(checker, tmp):
    race_bugs.unlink_races_attach(checker, "repro-racefx-401")


def drive_402(checker, tmp):
    registry = race_bugs.RacyRegistry()
    registry.register("seg")
    registry.release_unlocked(checker, "seg")


def drive_404(checker, tmp):
    arena = types.SimpleNamespace(free_bytes=128,
                                  execution_acquire=lambda n: None)
    pending: queue.Queue = queue.Queue()
    pending.put(1)
    race_bugs.stale_pool_write(checker, arena, pending)


def drive_405(checker, tmp):
    checker.fork("worker0")
    checker.note_result_produced("t0", actor="worker0")
    outcome = types.SimpleNamespace(result_blob=pickle.dumps([1, 2]))
    worker = types.SimpleNamespace(join=lambda: None)
    race_bugs.consume_before_join(checker, outcome, worker)


def drive_406(checker, tmp):
    checker.fork("w-live")
    race_bugs.sweep_live_worker(checker, "repro-racefx-none-")


def drive_407(checker, tmp):
    store = types.SimpleNamespace(pick_victim=lambda: "b1",
                                  swap_out=lambda key: None)
    race_bugs.respill_inflight_victim(checker, store, "b1")


def drive_408(checker, tmp):
    seg = shared_memory.SharedMemory(name="repro-racefx-408",
                                     create=True, size=64)
    try:
        race_bugs.write_through_attach(checker, "repro-racefx-408",
                                       b"\xff" * 8)
    finally:
        race_bugs.reset()      # drop the parked attach before the unlink
        seg.close()
        seg.unlink()


def drive_409(checker, tmp):
    event = TraceEvent(name="x", category="task", phase="i", ts_ms=1.0)
    race_bugs.relay_unanchored(checker, Tracer(), event, 100.0)


def drive_410(checker, tmp):
    arena = types.SimpleNamespace(grant=lambda task: None)
    race_bugs.double_grant(checker, arena, "7")


FIXTURES: tuple[tuple[str, str, Drive], ...] = (
    ("DECA301", "use-after-free-extent", drive_301),
    ("DECA302", "use-after-unlink-segment", drive_302),
    ("DECA303", "double-free", drive_303),
    ("DECA304", "view-escapes-adoption", drive_304),
    ("DECA305", "remap-invalidates-export", drive_305),
    ("DECA306", "leak-at-finish", drive_306),
    ("DECA308", "unreleased-drain-copy", drive_308),
    ("DECA401", "unlink-concurrent-with-attach", drive_401),
    ("DECA402", "refcount-outside-lock", drive_402),
    ("DECA404", "borrow-evict-lost-update", drive_404),
    ("DECA405", "wave-barrier-bypass", drive_405),
    ("DECA406", "orphan-sweep-live-worker", drive_406),
    ("DECA407", "reentrant-spill-victim", drive_407),
    ("DECA408", "readonly-page-write", drive_408),
    ("DECA409", "trace-relay-reorder", drive_409),
    ("DECA410", "double-grant", drive_410),
)


def run_fixtures(family: str = "DECA") -> list[dict]:
    """Drive every fixture whose rule id starts with *family*, each
    against a fresh checker — a ``ProvenanceLedger`` for DECA30x, a
    ``VClockChecker`` for DECA40x.  A fixture *fired* when the checker
    counted a violation under exactly the slug its rule maps to; one
    ``{"rule", "slug", "violations", "fired"}`` row per fixture.
    """
    rows = []
    for rule, slug, drive in FIXTURES:
        if not rule.startswith(family):
            continue
        borrow = rule.startswith("DECA3")
        checker = ProvenanceLedger() if borrow else VClockChecker()
        held: Iterable[memoryview] = ()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                held = drive(checker, tmp) or ()
                if borrow:
                    checker.check_finish()     # leaks count at the boundary
                count = checker.counters.get(slug, 0)
            finally:
                for view in held:
                    try:
                        view.release()
                    except BufferError:
                        pass
                borrow_bugs.reset()
                race_bugs.reset()
        rows.append({"rule": rule, "slug": slug, "violations": count,
                     "fired": count > 0})
    return rows
