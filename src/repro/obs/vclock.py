"""The vector-clock runtime race sanitizer (the dynamic half of
``DECA401``–``DECA410``).

Where the static detector (:mod:`repro.lint.race`) proves happens-before
properties of the *source*, this module checks them on a *run*: under
``DecaConfig.sanitize`` the context owns one :class:`VClockChecker`, and
every shm/tier reclaim, arena grant and trace relay is annotated with
the actor that performed it.

The clock model mirrors the engine's concurrency structure:

* the **driver** (and the sim backend's executors, which run inside the
  driver process in program order) is one *local* actor whose events are
  totally ordered — local annotations can never race each other, so the
  sequential backend is violation-free by construction;
* each mp **worker** is a *remote* actor.  :meth:`VClockChecker.fork`
  snapshots the driver clock into the worker's initial clock (the fork
  edge, once per worker per job); the worker process runs its own
  checker seeded from that snapshot, joins the clock every stage order
  carries (:meth:`VClockChecker.send`, the send edge), buffers its
  annotations, and ships them back with each task outcome;
  :meth:`VClockChecker.absorb` replays them driver-side and merges the
  worker clock (the receive edge).

A violation is an operation with no happens-before edge to the event it
must be ordered against: an attach whose segment was unlinked by a clock
the attacher never saw (DECA401), a result consumed before the producing
worker's clock was joined (DECA405), a sweep while the owning actor is
still live (DECA406).  Violations are counted per rule slug, folded into
``RunMetrics.race`` and raised at ``ctx.finish()``.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

from ..simtime import SimClock
from .tracer import Tracer

#: One slug per DECA40x rule, in rule order.
RACE_SLUGS: tuple[str, ...] = (
    "unlink-concurrent-with-attach",   # DECA401
    "refcount-outside-lock",           # DECA402
    "borrow-evict-lost-update",        # DECA404
    "wave-barrier-bypass",             # DECA405
    "orphan-sweep-live-worker",        # DECA406
    "reentrant-spill-victim",          # DECA407
    "readonly-page-write",             # DECA408
    "trace-relay-reorder",             # DECA409
    "double-grant",                    # DECA410
)

#: A vector clock: actor id -> event count.
Clock = dict[str, int]


def clock_leq(a: Clock, b: Clock) -> bool:
    """Whether *a* happens-before-or-equals *b* (componentwise <=)."""
    return all(count <= b.get(actor, 0) for actor, count in a.items())


def clock_merge(into: Clock, other: Clock) -> None:
    """Merge *other* into *into* (componentwise max), in place."""
    for actor, count in other.items():
        if count > into.get(actor, 0):
            into[actor] = count


class VClockChecker:
    """Tracks vector clocks per actor and checks every annotated
    shm/tier/arena operation for its required happens-before edge.

    One checker runs driver-side for the whole run; mp workers run a
    second checker (seeded from the fork snapshot) whose notes are
    shipped home in the result message and replayed via :meth:`absorb`.
    """

    def __init__(self, *, actor: str = "driver",
                 snapshot: Optional[Clock] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[SimClock] = None,
                 pid: int = 0) -> None:
        self.actor = actor
        self.tracer = tracer
        self.clock = clock
        self.pid = pid
        init: Clock = dict(snapshot) if snapshot else {}
        init.setdefault(actor, 0)
        self.clocks: dict[str, Clock] = {actor: init}
        self.counters: dict[str, int] = {
            "forks": 0, "joins": 0, "attaches": 0, "reclaims": 0,
            "accesses": 0, "refdecs": 0, "pool_writes": 0, "results": 0,
            "sweeps": 0, "victims": 0, "adopts": 0, "relays": 0,
            "grants": 0,
        }
        for slug in RACE_SLUGS:
            self.counters[slug] = 0
        self.violations: list[dict[str, str]] = []
        # (kind, name) -> clock of the reclaim that freed the resource.
        self._reclaimed: dict[tuple[str, str], Clock] = {}
        # (kind, name) -> access clocks the reclaim must dominate.
        self._accesses: dict[tuple[str, str], list[Clock]] = {}
        # Remote actors still considered alive (fork..exit window).
        self._live: set[str] = set()
        # pool -> version counter for lost-update detection.
        self._pool_versions: dict[str, int] = {}
        # task token -> producing clock (result handoff).
        self._produced: dict[str, Clock] = {}
        # keys whose spill is in flight.
        self._swapping: set[str] = set()
        # (kind, name) -> (adler32, view) for read-only adoptions.
        self._checksums: dict[tuple[str, str], tuple[int, Any]] = {}
        # task tokens holding an active arena grant.
        self._grants: set[str] = set()

    # -- clock plumbing -------------------------------------------------------
    def _clock_of(self, actor: Optional[str]) -> Clock:
        name = actor if actor is not None else self.actor
        clock = self.clocks.get(name)
        if clock is None:
            clock = {name: 0}
            self.clocks[name] = clock
        return clock

    def _tick(self, actor: Optional[str] = None) -> Clock:
        name = actor if actor is not None else self.actor
        clock = self._clock_of(name)
        clock[name] = clock.get(name, 0) + 1
        return clock

    def fork(self, actor: str) -> Clock:
        """Fork edge: snapshot the local clock into a new remote actor.

        Returns the snapshot to ship to the child process (its checker
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
        remote actor, whose checker merges it with :meth:`join`."""
        return dict(self._tick())

    def join(self, actor: str, clock: Optional[Clock] = None) -> None:
        """Receive edge: merge a remote actor's clock into the local one."""
        local = self._tick()
        remote = clock if clock is not None else self.clocks.get(actor)
        if remote is not None:
            clock_merge(local, remote)
            clock_merge(self._clock_of(actor), remote)
        self.counters["joins"] += 1

    def exit_actor(self, actor: str,
                   clock: Optional[Clock] = None) -> None:
        """Mark a remote actor dead (death confirmed by the backend)."""
        if clock is not None:
            self.join(actor, clock)
        self._live.discard(actor)

    # -- violations -----------------------------------------------------------
    def _violation(self, slug: str, kind: str, resource: str,
                   detail: str) -> None:
        self.counters[slug] += 1
        self.violations.append({"rule": slug, "kind": kind,
                                "resource": resource, "detail": detail})
        if self.tracer is not None:
            ts = self.clock.now_ms if self.clock is not None else 0.0
            self.tracer.instant(f"race:{slug}", "race", ts_ms=ts,
                                pid=self.pid, kind=kind,
                                resource=resource, detail=detail)

    # -- segment / extent lifecycle (DECA401) ---------------------------------
    def note_create(self, kind: str, name: str,
                    actor: Optional[str] = None) -> None:
        """A resource is (re)born; prior reclaim/access records die."""
        self._tick(actor)
        self._reclaimed.pop((kind, name), None)
        self._accesses.pop((kind, name), None)

    def note_attach(self, kind: str, name: str,
                    actor: Optional[str] = None) -> None:
        """An actor maps the resource by name; must happen-after any
        reclaim of that name (DECA401 when it does not)."""
        clock = self._tick(actor)
        self.counters["attaches"] += 1
        reclaim = self._reclaimed.get((kind, name))
        if reclaim is not None and not clock_leq(reclaim, clock):
            self._violation(
                "unlink-concurrent-with-attach", kind, name,
                f"attach by {actor or self.actor!s} has no "
                "happens-before edge to the unlink")
        self._accesses.setdefault((kind, name), []).append(dict(clock))

    def note_access(self, kind: str, name: str,
                    actor: Optional[str] = None) -> None:
        """An in-place read of the resource bytes; recorded so the
        eventual reclaim can prove it happened-after."""
        clock = self._tick(actor)
        self.counters["accesses"] += 1
        reclaim = self._reclaimed.get((kind, name))
        if reclaim is not None and not clock_leq(reclaim, clock):
            self._violation("unlink-concurrent-with-attach", kind, name,
                            f"access by {actor or self.actor!s} has no "
                            "happens-before edge to the reclaim")
        self._accesses.setdefault((kind, name), []).append(dict(clock))

    def note_reclaim(self, kind: str, name: str,
                     actor: Optional[str] = None) -> None:
        """The resource's bytes die; every recorded access must
        happen-before this point."""
        clock = self._tick(actor)
        self.counters["reclaims"] += 1
        for access in self._accesses.pop((kind, name), []):
            if not clock_leq(access, clock):
                self._violation(
                    "unlink-concurrent-with-attach", kind, name,
                    "reclaim has no happens-before edge to a recorded "
                    "access")
                break
        self._reclaimed[(kind, name)] = dict(clock)

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
        clock = self._tick(actor)
        self._produced[task] = dict(clock)

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
    def note_sweep(self, prefix: str,
                   owner: Optional[str] = None) -> None:
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
    def adopt_readonly(self, kind: str, name: str, view: Any) -> None:
        """An attached view adopted read-only: checksum the bytes so a
        later verify can prove no consumer-side write happened."""
        self._tick()
        self.counters["adopts"] += 1
        self._checksums[(kind, name)] = (zlib.adler32(bytes(view)), view)

    def verify_readonly(self, kind: str, name: str) -> None:
        """Re-checksum an adopted view at detach; a mismatch is a write
        through the read-only mapping."""
        entry = self._checksums.pop((kind, name), None)
        if entry is None:
            return
        checksum, view = entry
        try:
            current = zlib.adler32(bytes(view))
        except ValueError:  # view already released — nothing to prove
            return
        if current != checksum:
            self._violation(
                "readonly-page-write", kind, name,
                "adopted read-only bytes were modified before detach")

    # -- trace relay (DECA409) ------------------------------------------------
    def note_relay(self, ts_ms: float, anchor_ms: float,
                   pid: int = 0) -> None:
        """A worker event relayed onto the driver timeline; its
        timestamp must not sort before the stage anchor."""
        self._tick()
        self.counters["relays"] += 1
        if ts_ms < anchor_ms:
            self._violation(
                "trace-relay-reorder", "event", f"pid:{pid}",
                f"relayed ts {ts_ms} precedes stage anchor {anchor_ms}")

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
        """Everything a worker-side checker must ship home: its clock,
        its recorded accesses/results, and any local violations.

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
            if key in self.counters and key not in RACE_SLUGS:
                self.counters[key] += int(count)
        self.join(actor, dict(notes.get("clock", {})))

    # -- reporting ------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        out = dict(self.counters)
        out["violations"] = len(self.violations)
        return out

    def check_finish(self) -> dict[str, int]:
        """End-of-run summary (the context folds it into
        ``RunMetrics.race`` and raises on violations)."""
        return self.summary()
