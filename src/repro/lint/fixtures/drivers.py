"""Drivers that run every seeded bug against a live runtime sanitizer.

The fixtures in :mod:`.borrow_bugs` (DECA30x) and :mod:`.race_bugs`
(DECA40x) are minimal buggy interactions; each driver here owns the
setup its fixture needs (a pre-populated mmap tier, a registered shm
segment, a page group, an arena stub).  :data:`FIXTURES` is the one
``(rule id, drive)`` table — each rule's slug comes from the rule table,
:mod:`repro.obs.rules` — and :func:`run_fixtures` the one runner, behind
``python -m repro.bench sanitize`` and the tier-1 tests.

A separate module on purpose: the static checkers must report exactly
one finding per fixture of a rule with a static predicate and none
elsewhere in the two ``*_bugs`` modules, so nothing but the bugs
themselves lives there.
"""

from __future__ import annotations

import pickle
import queue
import tempfile
import types
from typing import Callable, Iterable

from ...exec.shm import (
    SegmentRef,
    SharedPageSegment,
    ShmSegmentRegistry,
    unlink_segment,
)
from ...memory.page import PageGroup
from ...memory.tier import PageStoreTier
from ...obs.rules import RULES_BY_ID
from ...obs.sanitizer import Sanitizer
from ...obs.tracer import TraceEvent, Tracer
from . import borrow_bugs, race_bugs

#: ``drive(sanitizer, tmp)``: *tmp* is a scratch directory that outlives
#: the call; returns the views the runner must release before it goes
#: away.
Drive = Callable[[Sanitizer, str], "Iterable[memoryview] | None"]


def _tier(tmp: str, name: str, group: str,
          sanitizer: Sanitizer) -> PageStoreTier:
    """A mmap tier holding one 64-byte extent under *group*."""
    tier = PageStoreTier(f"{tmp}/{name}.bin", sanitizer=sanitizer)
    tier.swap_out(group, [b"\xaa" * 64])
    return tier


# -- DECA30x: zero-copy lifetime bugs ---------------------------------------

def drive_301(sanitizer, tmp):
    tier = _tier(tmp, "t301", "fx-uaf", sanitizer)
    held = [borrow_bugs.bug_use_after_free_extent(tier)]
    tier.close()
    return held


def drive_302(sanitizer, tmp):
    name = "repro-fx-302"
    registry = ShmSegmentRegistry(sanitizer=sanitizer)
    seed = SharedPageSegment(name, 4096, create=True)
    registry.register(SegmentRef(name=name, nbytes=4096, count=0))
    held = [borrow_bugs.bug_use_after_unlink_segment(registry, sanitizer,
                                                     name)]
    seed.close()
    return held


def drive_303(sanitizer, tmp):
    tier = _tier(tmp, "t303", "fx-df", sanitizer)
    borrow_bugs.bug_double_free(tier)
    tier.close()


def drive_304(sanitizer, tmp):
    tier = _tier(tmp, "t304", "fx-esc", sanitizer)
    group = PageGroup("fx-esc", page_bytes=4096)
    group.sanitizer = sanitizer
    borrow_bugs.bug_view_escapes_adoption(tier, group, sanitizer)


def drive_305(sanitizer, tmp):
    tier = _tier(tmp, "t305", "fx-remap", sanitizer)
    scratch = types.SimpleNamespace(resize=lambda nbytes: None)
    return borrow_bugs.bug_remap_invalidates_export(tier, sanitizer,
                                                    scratch)


def drive_306(sanitizer, tmp):
    tier = _tier(tmp, "t306", "fx-leak", sanitizer)
    return borrow_bugs.bug_leak_at_finish(tier, stop_early=True)


def drive_308(sanitizer, tmp):
    group = PageGroup("fx-drain", page_bytes=4096)
    group.append_run(b"\xaa" * 48)
    group.sanitizer = sanitizer
    borrow_bugs.bug_unreleased_drain_copy(group)


# -- DECA40x: protocol races ------------------------------------------------
# Real engine objects where the protocol needs them (a shm segment, a
# tracer), stubs where only the protocol edge matters.

def drive_401(sanitizer, tmp):
    race_bugs.unlink_races_attach(sanitizer, "repro-racefx-401")


def drive_402(sanitizer, tmp):
    registry = race_bugs.RacyRegistry()
    registry.register("seg")
    registry.release_unlocked(sanitizer, "seg")


def drive_404(sanitizer, tmp):
    arena = types.SimpleNamespace(free_bytes=128,
                                  execution_acquire=lambda n: None)
    pending: queue.Queue = queue.Queue()
    pending.put(1)
    race_bugs.stale_pool_write(sanitizer, arena, pending)


def drive_405(sanitizer, tmp):
    sanitizer.fork("worker0")
    sanitizer.note_result_produced("t0", actor="worker0")
    outcome = types.SimpleNamespace(result_blob=pickle.dumps([1, 2]))
    worker = types.SimpleNamespace(join=lambda: None)
    race_bugs.consume_before_join(sanitizer, outcome, worker)


def drive_406(sanitizer, tmp):
    sanitizer.fork("w-live")
    race_bugs.sweep_live_worker(sanitizer, "repro-racefx-none-")


def drive_407(sanitizer, tmp):
    store = types.SimpleNamespace(pick_victim=lambda: "b1",
                                  swap_out=lambda key: None)
    race_bugs.respill_inflight_victim(sanitizer, store, "b1")


def drive_408(sanitizer, tmp):
    name = "repro-racefx-408"
    seg = SharedPageSegment(name, 64, create=True)
    try:
        race_bugs.write_through_attach(sanitizer, name, b"\xff" * 8)
    finally:
        race_bugs.reset()      # drop the parked attach before the unlink
        seg.close()
        unlink_segment(name)


def drive_409(sanitizer, tmp):
    event = TraceEvent(name="x", category="task", phase="i", ts_ticks=1)
    race_bugs.relay_unanchored(sanitizer, Tracer(), event, 100)


def drive_410(sanitizer, tmp):
    arena = types.SimpleNamespace(grant=lambda task: None)
    race_bugs.double_grant(sanitizer, arena, "7")
    # Released before finish: only the second grant counts, not a leak.
    sanitizer.note_grant_release("7")


FIXTURES: tuple[tuple[str, Drive], ...] = (
    ("DECA301", drive_301),
    ("DECA302", drive_302),
    ("DECA303", drive_303),
    ("DECA304", drive_304),
    ("DECA305", drive_305),
    ("DECA306", drive_306),
    ("DECA308", drive_308),
    ("DECA401", drive_401),
    ("DECA402", drive_402),
    ("DECA404", drive_404),
    ("DECA405", drive_405),
    ("DECA406", drive_406),
    ("DECA407", drive_407),
    ("DECA408", drive_408),
    ("DECA409", drive_409),
    ("DECA410", drive_410),
)


def run_fixtures(family: str = "DECA") -> list[dict]:
    """Drive every fixture whose rule id starts with *family*, each
    against a fresh :class:`Sanitizer`.  A fixture *fired* when the
    sanitizer counted a violation under exactly the slug its rule maps
    to, by the end of its :meth:`~Sanitizer.check_finish` (leaks count
    at the boundary); one ``{"rule", "slug", "violations", "fired"}``
    row per fixture.
    """
    rows = []
    for rule, drive in FIXTURES:
        if not rule.startswith(family):
            continue
        slug = RULES_BY_ID[rule].name
        sanitizer = Sanitizer()
        held: Iterable[memoryview] = ()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                held = drive(sanitizer, tmp) or ()
                count = sanitizer.check_finish()[slug]
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
