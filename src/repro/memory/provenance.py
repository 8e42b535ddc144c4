"""Runtime alias sanitizer: a provenance ledger for zero-copy borrows.

Deca's zero-copy paths hand out ``memoryview`` objects whose bytes live
*outside* the Python heap — in a :class:`repro.memory.tier.PageStoreTier`
mmap extent or a :class:`repro.exec.shm.SharedPageSegment`.  Nothing in
CPython ties those views to the lifecycle of their backing: freeing an
extent while a view is live silently lets the bytes be reused under the
reader (Sparkle / TeraHeap's "stale alias" failure mode, PAPERS.md).

The :class:`ProvenanceLedger` is the dynamic half of the DECA301–308
borrow checker (``repro.lint.borrow`` is the static half).  When
``DecaConfig.sanitize`` is on, every executor carries one ledger that

* records each exported view (**borrow**) with its backing resource —
  ``("extent", name)`` or ``("segment", name)`` — and its adopting page
  group once promoted;
* intercepts ``free`` / ``unlink`` / ``remap`` / ``reclaim`` and checks
  live borrows at each transition, so a violation is reported at the
  moment the aliasing bug happens, not when the corruption surfaces;
* poisons freed extents with :data:`POISON_BYTE` so any surviving alias
  reads an obviously-wrong sentinel instead of plausible stale data;
* reports every violation as a ``sanitize:*`` trace instant and in the
  integer summary that ``DecaContext.finish()`` folds into
  ``RunMetrics.sanitize`` — and fails the run with
  :class:`repro.errors.SanitizerError` if any violation was seen.

Liveness of a borrow is judged with two signals: a released view raises
``ValueError`` on attribute access (``memoryview.release`` semantics),
and a view whose only remaining reference is the ledger's own record is
garbage, not a borrow — detected with ``sys.getrefcount``.  A sub-view
sliced from a borrow keeps the *buffer* exported (release raises
``BufferError``) without bumping the parent's refcount, which is exactly
the signal :meth:`note_reclaim` uses for escaped adoptions.

Every method is a no-op-cheap dict/set update; when sanitize mode is off
no ledger exists at all and the engine hot paths pay a single
``is None`` test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

#: Sentinel byte written over every freed extent in sanitize mode.  The
#: value is arbitrary but recognizable (0xDB ~ "dead bytes"); a reader
#: holding a stale alias sees a uniform 0xDB fill instead of whatever
#: the next tenant wrote.
POISON_BYTE = 0xDB

#: Violation slugs, one per DECA30x rule, in rule order.
VIOLATION_SLUGS = (
    "use-after-free-extent",
    "use-after-unlink-segment",
    "double-free",
    "view-escapes-adoption",
    "remap-invalidates-export",
    "leak-at-finish",
    "unreleased-drain-copy",
)


def poison_fill(mm: Any, offset: int, length: int) -> int:
    """Overwrite ``mm[offset:offset+length]`` with the poison sentinel."""
    if length <= 0:
        return 0
    mm[offset:offset + length] = bytes([POISON_BYTE]) * length
    return length


@dataclass
class Borrow:
    """One exported zero-copy view and the resource backing it."""

    borrow_id: int
    kind: str                    # "extent" | "segment"
    resource: str                # extent / segment name
    view: memoryview | None
    nbytes: int
    transient: bool              # read-path export, expected short-lived
    group: str | None = None     # page group that adopted the view
    orphaned: bool = False       # adopting group was reclaimed
    released: bool = False


class ProvenanceLedger:
    """Records zero-copy borrows and checks lifecycle transitions.

    One ledger per executor (plus one driver-side ledger for shm segment
    ownership).  All counters are integers and all violation records are
    appended in program order, so the summary is byte-deterministic
    under a fixed seed.
    """

    def __init__(self, *, tracer: Tracer | None = None, clock: Any = None,
                 pid: int = 0) -> None:
        self.tracer = tracer
        self.clock = clock
        self.pid = pid
        self._next_id = 0
        self._borrows: dict[int, Borrow] = {}
        self._by_resource: dict[tuple[str, str], list[int]] = {}
        self._freed: set[tuple[str, str]] = set()
        self._drains: dict[str, int] = {}   # group name -> live copy count
        self.violations: list[dict[str, str]] = []
        self.counters: dict[str, int] = {
            "borrows": 0, "releases": 0, "allocs": 0, "frees": 0,
            "remaps": 0, "reclaims": 0, "drain_copies": 0,
            "poisoned_bytes": 0,
        }
        for slug in VIOLATION_SLUGS:
            self.counters[slug] = 0

    # -- liveness -----------------------------------------------------------
    def _is_attached(self, borrow: Borrow) -> bool:
        """The borrow's view still holds its buffer (not released)."""
        if borrow.released:
            return False
        view = borrow.view
        if view is None:
            return True
        try:
            view.nbytes
        except ValueError:
            borrow.released = True
            return False
        return True

    def _is_live(self, borrow: Borrow) -> bool:
        """Attached *and* referenced by someone other than the ledger."""
        if not self._is_attached(borrow):
            return False
        view = borrow.view
        if view is None:
            return True
        # Three references are accounted for right here: ``borrow.view``,
        # the local ``view`` binding and getrefcount's own argument.
        # Anything beyond that is an external holder.
        return sys.getrefcount(view) > 3

    # -- violation reporting ------------------------------------------------
    def _violation(self, slug: str, kind: str, resource: str,
                   detail: str) -> None:
        self.counters[slug] += 1
        self.violations.append({
            "rule": slug, "kind": kind, "resource": resource,
            "detail": detail,
        })
        if self.tracer is not None:
            ts = self.clock.now_ms if self.clock is not None else 0.0
            self.tracer.instant(f"sanitize:{slug}", "sanitize", ts_ms=ts,
                                pid=self.pid, kind=kind, resource=resource,
                                detail=detail)

    # -- registration -------------------------------------------------------
    def note_alloc(self, kind: str, resource: str) -> None:
        """A resource came (back) into existence; stale state is reset."""
        key = (kind, resource)
        self.counters["allocs"] += 1
        self._freed.discard(key)
        for borrow_id in self._by_resource.pop(key, []):
            borrow = self._borrows.get(borrow_id)
            if borrow is not None:
                borrow.released = True

    def borrow(self, kind: str, resource: str, *,
               view: memoryview | None = None, nbytes: int = 0,
               transient: bool = True) -> int:
        """Record one exported view over ``(kind, resource)``."""
        key = (kind, resource)
        if key in self._freed:
            self._violation(
                "use-after-free-extent" if kind != "segment"
                else "use-after-unlink-segment", kind, resource,
                "view exported from a resource already freed")
        self._next_id += 1
        borrow = Borrow(self._next_id, kind, resource, view,
                        nbytes if view is None else view.nbytes, transient)
        self._borrows[borrow.borrow_id] = borrow
        self._by_resource.setdefault(key, []).append(borrow.borrow_id)
        self.counters["borrows"] += 1
        return borrow.borrow_id

    def release(self, borrow_id: int) -> None:
        borrow = self._borrows.get(borrow_id)
        if borrow is not None and not borrow.released:
            borrow.released = True
            self.counters["releases"] += 1

    def retain(self, kind: str, resource: str,
               group: str | None = None) -> None:
        """Promote the resource's borrows from transient to owned.

        Called when a cache block adopts the exported views (``group`` =
        the adopting page group) or aliases them as its payload blob.
        """
        for borrow_id in self._by_resource.get((kind, resource), []):
            borrow = self._borrows[borrow_id]
            borrow.transient = False
            if group is not None:
                borrow.group = group

    # -- lifecycle interceptions --------------------------------------------
    def note_free(self, kind: str, resource: str) -> None:
        """The backing resource is being freed / unlinked right now."""
        key = (kind, resource)
        self.counters["frees"] += 1
        if key in self._freed:
            self._violation("double-free", kind, resource,
                            "resource freed twice without reallocation")
            return
        self._freed.add(key)
        slug = ("use-after-unlink-segment" if kind == "segment"
                else "use-after-free-extent")
        for borrow_id in self._by_resource.get(key, []):
            borrow = self._borrows[borrow_id]
            if self._is_live(borrow):
                self._violation(
                    slug, kind, resource,
                    f"borrow #{borrow_id} ({borrow.nbytes} B) still live "
                    "at free")

    def note_remap(self, kind: str, resources: list[str] | tuple[str, ...],
                   *, retired: bool) -> None:
        """The backing mapping was replaced (grow-by-remap).

        ``retired=True`` means the old mapping was kept alive for its
        exported views (the safe protocol); ``retired=False`` models an
        in-place remap that invalidates every export.
        """
        self.counters["remaps"] += 1
        if retired:
            return
        for resource in resources:
            for borrow_id in self._by_resource.get((kind, resource), []):
                borrow = self._borrows[borrow_id]
                if self._is_live(borrow):
                    self._violation(
                        "remap-invalidates-export", kind, resource,
                        f"borrow #{borrow_id} exported before an "
                        "unretired remap")

    def note_reclaim(self, group: str) -> None:
        """Page group *group* was reclaimed; its adopted views must have
        been detached (released) by now — a still-attached view escaped
        the adoption and is flagged at :meth:`check_finish`."""
        self.counters["reclaims"] += 1
        for borrow in self._borrows.values():
            if borrow.group == group:
                borrow.orphaned = True

    def note_poison(self, kind: str, resource: str, nbytes: int) -> None:
        self.counters["poisoned_bytes"] += nbytes

    # -- transient drain copies ---------------------------------------------
    def note_drain_copy(self, group: str, nbytes: int) -> None:
        """One heap-tier drain chunk was copied out of *group*."""
        self.counters["drain_copies"] += 1
        self._drains[group] = self._drains.get(group, 0) + 1

    def release_drain(self, group: str) -> None:
        """All drain copies of *group* were consumed and freed."""
        self._drains.pop(group, None)

    # -- finish-time checks -------------------------------------------------
    def check_finish(self) -> dict[str, int]:
        """Run end-of-run leak checks; returns the integer summary."""
        for borrow_id in sorted(self._borrows):
            borrow = self._borrows[borrow_id]
            if borrow.orphaned and self._is_attached(borrow):
                self._violation(
                    "view-escapes-adoption", borrow.kind, borrow.resource,
                    f"borrow #{borrow_id} still attached after its "
                    f"adopting group {borrow.group!r} was reclaimed")
            elif borrow.transient and self._is_live(borrow):
                self._violation(
                    "leak-at-finish", borrow.kind, borrow.resource,
                    f"transient borrow #{borrow_id} ({borrow.nbytes} B) "
                    "still live at finish")
        for group in sorted(self._drains):
            self._violation(
                "unreleased-drain-copy", "group", group,
                f"{self._drains[group]} drain copies never released")
        return self.summary()

    # -- introspection ------------------------------------------------------
    def live_borrows(self, kind: str | None = None,
                     resource: str | None = None) -> int:
        """Count live borrows, optionally filtered by kind / resource."""
        count = 0
        for borrow in self._borrows.values():
            if kind is not None and borrow.kind != kind:
                continue
            if resource is not None and borrow.resource != resource:
                continue
            if self._is_live(borrow):
                count += 1
        return count

    def summary(self) -> dict[str, int]:
        """Integer-only summary (determinism-safe, RunMetrics-ready)."""
        out = dict(self.counters)
        out["violations"] = len(self.violations)
        return out

    def __repr__(self) -> str:
        return (f"ProvenanceLedger({len(self._borrows)} borrows, "
                f"{len(self.violations)} violations)")
