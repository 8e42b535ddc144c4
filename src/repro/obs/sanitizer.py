"""The runtime sanitizer: the dynamic half of ``DECA101``
(:mod:`repro.lint.shadow`), ``DECA301``–``DECA308``
(:mod:`repro.lint.borrow`) and ``DECA401``–``DECA410``
(:mod:`repro.lint.race`).

Deca's zero-copy paths hand out ``memoryview`` objects whose bytes live
*outside* the Python heap — in a :class:`repro.memory.tier.PageStoreTier`
mmap extent or a :class:`repro.exec.shm.SharedPageSegment` — and the mp
backend lets several processes touch those bytes.  Nothing in CPython
ties a view to the lifecycle of its backing, or orders one process's
reclaim after another's read.  Under ``DecaConfig.sanitize`` one
:class:`Sanitizer` per process watches both, and keeps a book of what
the page groups hold:

* **borrows** — each exported view is recorded with its backing resource
  (``("extent", "<tier tag>:<name>")`` or ``("segment", name)``) and the
  page group that adopted it, if any; a free, remap, group reclaim or
  drain checks the live borrows at the moment the aliasing bug happens,
  not when the corruption surfaces, and freed extents are poisoned with
  :data:`POISON_BYTE`;
* **vector clocks** — the driver (and the sim backend's executors, which
  run inside it in program order) is one *local* actor; each mp worker
  is a *remote* actor whose process runs a replica seeded from
  :meth:`Sanitizer.fork`'s snapshot, joins the clock each stage order
  carries (:meth:`Sanitizer.send`), and ships its notes home with every
  task outcome for :meth:`Sanitizer.absorb` to replay.  An operation
  with no happens-before edge to the event it must be ordered against
  is a violation: a read of a resource reclaimed by a clock the reader
  never saw, a result consumed before its producer was joined, a sweep
  while the owner is live.
* **the lifetime book** — every record appended to a page group that
  reports to the sanitizer is counted by schema and packed size, and
  its bytes by group (:meth:`Sanitizer.note_append`).  The book raises
  nothing itself: the lint shadow validator reads it after the run and
  checks it against the optimizer's size-type claims.  It stays in its
  process (a worker's book is not shipped home).

The three lifecycle checkpoints both halves share are one call each:
:meth:`~Sanitizer.create`, :meth:`~Sanitizer.export` and
:meth:`~Sanitizer.free`.  Every violation is counted under its rule's
slug, traced as a ``sanitize:<slug>`` (DECA30x) or ``race:<slug>``
(DECA40x) instant, folded into ``RunMetrics.sanitize`` at
``DecaContext.finish()`` and raised there as
:class:`repro.errors.SanitizerError`.

Liveness of a borrow is judged with two signals: a released view raises
``ValueError`` on attribute access, and a view whose only remaining
reference is the sanitizer's own record is garbage, not a borrow —
detected with ``sys.getrefcount``.  A sub-view sliced from a borrow keeps
the *buffer* exported (release raises ``BufferError``) without bumping
the parent's refcount, which is exactly what an escaped adoption looks
like at :meth:`~Sanitizer.check_finish`.

Every method is a dict/set update; with sanitize mode off no sanitizer
exists and each checkpoint pays a single ``is None`` test.
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .rules import slugs
from .tracer import DRIVER_PID, Tracer

#: Sentinel byte written over every freed extent (0xDB ~ "dead bytes"):
#: a reader holding a stale alias sees a uniform fill instead of whatever
#: the next tenant wrote.
POISON_BYTE = 0xDB

#: One slug per DECA30x (borrow) and DECA40x (race) rule, in rule order.
BORROW_SLUGS = slugs("DECA3")
RACE_SLUGS = slugs("DECA4")
SLUGS = BORROW_SLUGS + RACE_SLUGS

#: A vector clock: actor id -> event count.
Clock = dict[str, int]

#: A resource: ``(kind, name)``.
Key = tuple[str, str]


def clock_leq(a: Clock, b: Clock) -> bool:
    """Whether *a* happens-before-or-equals *b* (componentwise <=)."""
    return all(count <= b.get(actor, 0) for actor, count in a.items())


def clock_merge(into: Clock, other: Clock) -> None:
    """Merge *other* into *into* (componentwise max), in place."""
    for actor, count in other.items():
        if count > into.get(actor, 0):
            into[actor] = count


@dataclass
class Borrow:
    """One exported zero-copy view and the resource backing it."""

    borrow_id: int
    kind: str                    # "extent" | "segment"
    resource: str
    view: memoryview
    transient: bool              # read-path export, expected short-lived
    group: Any = None            # the page group that adopted the view
    orphaned: bool = False       # the adopting group was reclaimed
    released: bool = False


class Sanitizer:
    """One process's runtime checker: borrows and vector clocks.

    All counters are integers and violations are appended in program
    order, so the summary is byte-deterministic under a fixed seed.
    """

    def __init__(self, *, actor: str = "driver",
                 snapshot: Optional[Clock] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.actor = actor
        self.tracer = tracer
        init: Clock = dict(snapshot) if snapshot else {}
        init.setdefault(actor, 0)
        self.clocks: dict[str, Clock] = {actor: init}
        self.counters: dict[str, int] = {
            # borrows
            "allocs": 0, "borrows": 0, "frees": 0, "poisoned_bytes": 0,
            "remaps": 0, "group_reclaims": 0, "drain_copies": 0,
            # clocks
            "accesses": 0, "adopts": 0, "forks": 0, "joins": 0,
            "refdecs": 0, "pool_writes": 0, "results": 0, "sweeps": 0,
            "victims": 0, "relays": 0, "grants": 0,
        }
        for slug in SLUGS:
            self.counters[slug] = 0
        self.violations: list[dict[str, str]] = []
        self._borrows: list[Borrow] = []
        self._by_resource: dict[Key, list[Borrow]] = {}
        # group name -> live drain copies.
        self._drains: dict[str, int] = {}
        # freed resource -> clock of the free (until it is re-created).
        self._reclaimed: dict[Key, Clock] = {}
        # resource -> access clocks its free must dominate.
        self._accesses: dict[Key, list[Clock]] = {}
        # Remote actors still considered alive (fork..exit window).
        self._live: set[str] = set()
        # pool -> version counter for lost-update detection.
        self._pool_versions: dict[str, int] = {}
        # task token -> producing clock (result handoff).
        self._produced: dict[str, Clock] = {}
        # block keys whose spill is in flight.
        self._swapping: set[str] = set()
        # resource -> (adler32, view) per view adopted read-only.
        self._checksums: dict[Key, list[tuple[int, memoryview]]] = {}
        # task tokens holding an active arena grant.
        self._grants: set[str] = set()
        # The lifetime book (DECA101's runtime half, read by the lint
        # shadow validator): schema -> packed record size -> count, and
        # group name -> (schema, packed bytes).
        self.record_sizes: dict[str, dict[int, int]] = {}
        self.group_bytes: dict[str, tuple[str, int]] = {}

    # -- liveness -------------------------------------------------------------
    def _is_attached(self, borrow: Borrow) -> bool:
        """The borrow's view still holds its buffer (not released)."""
        if borrow.released:
            return False
        try:
            borrow.view.nbytes
        except ValueError:
            borrow.released = True
            return False
        return True

    def _is_live(self, borrow: Borrow) -> bool:
        """Attached *and* referenced by someone other than the sanitizer."""
        if not self._is_attached(borrow):
            return False
        view = borrow.view
        # Three references are accounted for right here: ``borrow.view``,
        # the local ``view`` binding and getrefcount's own argument.
        return sys.getrefcount(view) > 3

    # -- clocks ---------------------------------------------------------------
    def _clock_of(self, actor: Optional[str]) -> Clock:
        name = actor if actor is not None else self.actor
        clock = self.clocks.get(name)
        if clock is None:
            clock = self.clocks[name] = {name: 0}
        return clock

    def _tick(self, actor: Optional[str] = None) -> Clock:
        name = actor if actor is not None else self.actor
        clock = self._clock_of(name)
        clock[name] = clock.get(name, 0) + 1
        return clock

    def fork(self, actor: str) -> Clock:
        """Fork edge: snapshot the local clock into a new remote actor.

        Returns the snapshot to ship to the child process (its sanitizer
        is constructed with ``snapshot=``).
        """
        snapshot = dict(self._tick())
        child = dict(snapshot)
        child.setdefault(actor, 0)
        self.clocks[actor] = child
        self._live.add(actor)
        self.counters["forks"] += 1
        return snapshot

    def send(self) -> Clock:
        """Send edge: snapshot the local clock for a message to a live
        remote actor, whose sanitizer merges it with :meth:`join`."""
        return dict(self._tick())

    def join(self, actor: str, clock: Optional[Clock] = None) -> None:
        """Receive edge: merge a remote actor's clock into the local one."""
        local = self._tick()
        remote = clock if clock is not None else self.clocks.get(actor)
        if remote is not None:
            clock_merge(local, remote)
            clock_merge(self._clock_of(actor), remote)
        self.counters["joins"] += 1

    def exit_actor(self, actor: str) -> None:
        """Mark a remote actor dead (death confirmed by the backend)."""
        self._live.discard(actor)

    # -- violations -----------------------------------------------------------
    def _violation(self, slug: str, kind: str, resource: str,
                   detail: str) -> None:
        self.counters[slug] += 1
        self.violations.append({"rule": slug, "kind": kind,
                                "resource": resource, "detail": detail})
        if self.tracer is not None:
            family = "sanitize" if slug in BORROW_SLUGS else "race"
            self.tracer.instant(f"{family}:{slug}", family, ts_ticks=0,
                                pid=DRIVER_PID, kind=kind, resource=resource,
                                detail=detail)

    # -- the resource lifecycle: one call per checkpoint ---------------------
    def create(self, kind: str, name: str,
               actor: Optional[str] = None) -> None:
        """A resource came (back) into existence; its stale borrows,
        free and access records die with the old incarnation."""
        key = (kind, name)
        self._tick(actor)
        self.counters["allocs"] += 1
        for borrow in self._by_resource.pop(key, ()):
            borrow.released = True
        self._reclaimed.pop(key, None)
        self._accesses.pop(key, None)

    def export(self, kind: str, name: str, views: Iterable[memoryview] = (),
               *, transient: bool = True, group: Any = None,
               readonly: bool = False, actor: Optional[str] = None) -> None:
        """*actor* reads the resource's bytes, through *views* if any.

        A read after the resource's free is a use-after-free when the
        free happened-before it (DECA301/302), a race when it did not
        (DECA401: the reader never saw the reclaim).  Each view
        is recorded as a borrow — transient (a read path, a leak if still
        live at finish) or owned: kept by the caller, or adopted by the
        page group *group* — and, when *readonly*, checksummed for
        :meth:`verify_readonly`.
        """
        key = (kind, name)
        clock = self._tick(actor)
        self.counters["accesses"] += 1
        reclaim = self._reclaimed.get(key)
        if reclaim is not None and clock_leq(reclaim, clock):
            self._violation(
                "use-after-unlink-segment" if kind == "segment"
                else "use-after-free-extent", kind, name,
                "view exported from a resource already freed")
        elif reclaim is not None:
            self._violation("unlink-concurrent-with-attach", kind, name,
                            f"access by {actor or self.actor} has no "
                            "happens-before edge to the reclaim")
        self._accesses.setdefault(key, []).append(dict(clock))
        exported = list(views)
        for view in exported:
            borrow = Borrow(len(self._borrows) + 1, kind, name, view,
                            transient and group is None, group)
            self._borrows.append(borrow)
            self._by_resource.setdefault(key, []).append(borrow)
        self.counters["borrows"] += len(exported)
        if readonly:
            self.counters["adopts"] += 1
            self._checksums[key] = [(zlib.adler32(bytes(view)), view)
                                    for view in exported]

    def free(self, kind: str, name: str, *, mm: Any = None, offset: int = 0,
             length: int = 0, actor: Optional[str] = None) -> None:
        """The resource dies now: freed, unlinked, dropped.

        A second free with no create between is DECA303; a borrow still
        live is DECA301/302; every recorded access must happen-before
        this point (DECA401).  With *mm*, ``mm[offset:offset+length]`` is
        overwritten with :data:`POISON_BYTE`.
        """
        key = (kind, name)
        self.counters["frees"] += 1
        if key in self._reclaimed:
            self._violation("double-free", kind, name,
                            "resource freed twice without reallocation")
            return
        slug = ("use-after-unlink-segment" if kind == "segment"
                else "use-after-free-extent")
        for borrow in self._by_resource.get(key, ()):
            if self._is_live(borrow):
                self._violation(
                    slug, kind, name,
                    f"borrow #{borrow.borrow_id} ({borrow.view.nbytes} B) "
                    "still live at free")
        if mm is not None and length > 0:
            mm[offset:offset + length] = bytes([POISON_BYTE]) * length
            self.counters["poisoned_bytes"] += length
        clock = self._tick(actor)
        for access in self._accesses.pop(key, []):
            if not clock_leq(access, clock):
                self._violation(
                    "unlink-concurrent-with-attach", kind, name,
                    "reclaim has no happens-before edge to a recorded "
                    "access")
                break
        self._reclaimed[key] = dict(clock)

    # -- borrows (DECA304/305/308) --------------------------------------------
    def note_remap(self, kind: str, names: Iterable[str], *,
                   retired: bool) -> None:
        """The backing mapping was replaced (grow-by-remap).

        ``retired=True`` means the old mapping was kept alive for its
        exported views (the safe protocol); ``retired=False`` models an
        in-place remap that invalidates every export.
        """
        self.counters["remaps"] += 1
        if retired:
            return
        for name in names:
            for borrow in self._by_resource.get((kind, name), ()):
                if self._is_live(borrow):
                    self._violation(
                        "remap-invalidates-export", kind, name,
                        f"borrow #{borrow.borrow_id} exported before an "
                        "unretired remap")

    def note_group_reclaim(self, group: Any) -> None:
        """Page group *group* was reclaimed: the views it adopted must be
        detached by now — one still attached escaped the adoption and is
        flagged at :meth:`check_finish`."""
        self.counters["group_reclaims"] += 1
        for borrow in self._borrows:
            if borrow.group is group:
                borrow.orphaned = True

    def note_drain_copy(self, group: str, nbytes: int) -> None:
        """One heap-tier drain chunk was copied out of *group*."""
        self.counters["drain_copies"] += 1
        self._drains[group] = self._drains.get(group, 0) + 1

    def release_drain(self, group: str) -> None:
        """All drain copies of *group* were consumed and freed."""
        self._drains.pop(group, None)

    # -- the lifetime book (DECA101) -----------------------------------------
    def note_append(self, group: str, schema: str, size: int,
                    count: int = 1) -> None:
        """*count* records of *schema*, *size* bytes packed each, were
        appended to page group *group*."""
        sizes = self.record_sizes.setdefault(schema, {})
        sizes[size] = sizes.get(size, 0) + count
        packed = self.group_bytes.get(group, (schema, 0))[1]
        self.group_bytes[group] = (schema, packed + size * count)

    # -- refcounts (DECA402) --------------------------------------------------
    def note_refdec(self, name: str, *, locked: bool = True) -> None:
        """A refcount decrement; must run under the registry lock."""
        self._tick()
        self.counters["refdecs"] += 1
        if not locked:
            self._violation("refcount-outside-lock", "segment", name,
                            "refcount mutated outside the registry lock")

    # -- arena pools (DECA404) ------------------------------------------------
    def pool_read(self, pool: str) -> int:
        """Sample a pool level; returns its version for CAS-style
        validation at the eventual write."""
        self._tick()
        return self._pool_versions.get(pool, 0)

    def pool_write(self, pool: str,
                   based_on: Optional[int] = None) -> None:
        """A pool transition.  When *based_on* is given, the write is
        derived from a sampled level; a version moved in between means
        the concurrent transition is silently overwritten."""
        self._tick()
        self.counters["pool_writes"] += 1
        version = self._pool_versions.get(pool, 0)
        if based_on is not None and based_on != version:
            self._violation(
                "borrow-evict-lost-update", "pool", pool,
                f"write based on version {based_on} but the pool is at "
                f"version {version}")
        self._pool_versions[pool] = version + 1

    # -- result handoff (DECA405) ---------------------------------------------
    def note_result_produced(self, task: str,
                             actor: Optional[str] = None) -> None:
        self._produced[task] = dict(self._tick(actor))

    def note_result_consumed(self, task: str,
                             actor: Optional[str] = None) -> None:
        clock = self._tick(actor)
        self.counters["results"] += 1
        produced = self._produced.get(task)
        if produced is not None and not clock_leq(produced, clock):
            self._violation(
                "wave-barrier-bypass", "task", task,
                "result consumed with no happens-before edge to its "
                "producer (no queue get / join)")

    # -- orphan sweeps (DECA406) ----------------------------------------------
    def note_sweep(self, prefix: str, owner: Optional[str] = None) -> None:
        """An orphan-segment sweep; the owning actor must be dead."""
        self._tick()
        self.counters["sweeps"] += 1
        if owner is not None and owner in self._live:
            self._violation(
                "orphan-sweep-live-worker", "segment", prefix,
                f"sweep of {prefix!r} while owner {owner!r} is live")

    # -- spill re-entrancy (DECA407) ------------------------------------------
    def swap_begin(self, key: str) -> None:
        self._tick()
        self._swapping.add(key)

    def swap_end(self, key: str) -> None:
        self._swapping.discard(key)

    def note_victim(self, key: str) -> None:
        """A spill victim was selected; it must not be mid-swap."""
        self._tick()
        self.counters["victims"] += 1
        if key in self._swapping:
            self._violation(
                "reentrant-spill-victim", "block", key,
                "victim selected while its own swap is in flight")

    # -- read-only adoption (DECA408) -----------------------------------------
    def verify_readonly(self, kind: str, name: str) -> None:
        """Re-checksum the views :meth:`export` adopted read-only; a
        mismatch is a write through the read-only mapping."""
        for checksum, view in self._checksums.pop((kind, name), ()):
            try:
                current = zlib.adler32(bytes(view))
            except ValueError:  # view already released — nothing to prove
                continue
            if current != checksum:
                self._violation(
                    "readonly-page-write", kind, name,
                    "adopted read-only bytes were modified before detach")
                return

    # -- trace relay (DECA409) ------------------------------------------------
    def note_relay(self, ts_ticks: int, anchor_ticks: int,
                   pid: int = 0) -> None:
        """A worker event relayed onto the driver timeline; its
        timestamp must not sort before the stage anchor."""
        self._tick()
        self.counters["relays"] += 1
        if ts_ticks < anchor_ticks:
            self._violation(
                "trace-relay-reorder", "event", f"pid:{pid}",
                f"relayed ts {ts_ticks} precedes stage anchor "
                f"{anchor_ticks} (ticks)")

    # -- arena grants (DECA410) -----------------------------------------------
    def note_grant(self, token: str) -> None:
        self._tick()
        self.counters["grants"] += 1
        if token in self._grants:
            self._violation(
                "double-grant", "task", token,
                "task token granted twice with no release between")
            return
        self._grants.add(token)

    def note_grant_release(self, token: str) -> None:
        self._grants.discard(token)

    # -- cross-process shipping -----------------------------------------------
    def export_notes(self, *, drain: bool = False) -> dict[str, Any]:
        """Everything a worker-side sanitizer must ship home: its clock,
        its recorded accesses/results, its counters and violations.

        With ``drain=True`` the shipped state is cleared afterwards (the
        clock stays — it is monotone), so a worker reporting once per
        task ships deltas and the driver's :meth:`absorb` never
        double-counts."""
        notes = {
            "actor": self.actor,
            "clock": dict(self._clock_of(self.actor)),
            "accesses": [
                {"kind": kind, "name": name, "clock": dict(clock)}
                for (kind, name), clocks in sorted(self._accesses.items())
                for clock in clocks
            ],
            "produced": [
                {"task": task, "clock": dict(clock)}
                for task, clock in sorted(self._produced.items())
            ],
            "violations": list(self.violations),
            "counters": dict(self.counters),
        }
        if drain:
            self._accesses.clear()
            self._produced.clear()
            self.violations = []
            for key in self.counters:
                self.counters[key] = 0
        return notes

    def absorb(self, notes: dict[str, Any]) -> None:
        """Replay a worker's shipped notes (the receive edge): record
        its accesses, check them against known reclaims, fold its
        violations/counters, and merge its clock."""
        actor = str(notes.get("actor", "worker"))
        for access in notes.get("accesses", ()):
            kind = str(access["kind"])
            name = str(access["name"])
            clock: Clock = dict(access["clock"])
            reclaim = self._reclaimed.get((kind, name))
            if reclaim is not None and not clock_leq(reclaim, clock):
                self._violation(
                    "unlink-concurrent-with-attach", kind, name,
                    f"worker {actor!r} accessed the resource with no "
                    "happens-before edge to its reclaim")
            self._accesses.setdefault((kind, name), []).append(clock)
        for produced in notes.get("produced", ()):
            self._produced[str(produced["task"])] = dict(produced["clock"])
        for violation in notes.get("violations", ()):
            slug = str(violation.get("rule", ""))
            if slug in self.counters:
                self.counters[slug] += 1
            self.violations.append(
                {str(k): str(v) for k, v in violation.items()})
        for counter, count in notes.get("counters", {}).items():
            key = str(counter)
            if key in self.counters and key not in SLUGS:
                self.counters[key] += int(count)
        self.join(actor, dict(notes.get("clock", {})))

    # -- reporting ------------------------------------------------------------
    def live_borrows(self, kind: Optional[str] = None,
                     name: Optional[str] = None) -> int:
        """Count live borrows, optionally filtered by kind / name."""
        return sum(1 for borrow in self._borrows
                   if kind in (None, borrow.kind)
                   and name in (None, borrow.resource)
                   and self._is_live(borrow))

    def summary(self) -> dict[str, int]:
        """Integer-only summary (determinism-safe, RunMetrics-ready)."""
        out = dict(self.counters)
        out["violations"] = len(self.violations)
        return out

    def check_finish(self) -> dict[str, int]:
        """Run the end-of-run leak checks; returns the summary."""
        for borrow in self._borrows:
            if borrow.orphaned and self._is_attached(borrow):
                self._violation(
                    "view-escapes-adoption", borrow.kind, borrow.resource,
                    f"borrow #{borrow.borrow_id} still attached after its "
                    f"adopting group {borrow.group.name!r} was reclaimed")
            elif borrow.transient and self._is_live(borrow):
                self._violation(
                    "leak-at-finish", borrow.kind, borrow.resource,
                    f"transient borrow #{borrow.borrow_id} "
                    f"({borrow.view.nbytes} B) still live at finish")
        for group in sorted(self._drains):
            self._violation(
                "unreleased-drain-copy", "group", group,
                f"{self._drains[group]} drain copies never released")
        for token in sorted(self._grants):
            # Reported under DECA410: a slot never released keeps
            # charging the fair share, as a second grant of it would.
            self._violation(
                "double-grant", "task", token,
                "task slot granted and never released by finish")
        return self.summary()
