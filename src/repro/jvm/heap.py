"""The generational simulated heap.

:class:`SimHeap` models exactly the JVM behaviour the paper analyses in §2:

* bump allocation into a **young generation**; when it fills, a **minor
  collection** traces the surviving young objects, kills the temporaries and
  promotes the long-living cohorts into the **old generation**;
* when the old generation's occupancy crosses a threshold, a **full
  collection** traces *every* live object in the heap — which is where
  Spark's millions of cached records burn CPU without freeing anything, and
  where Deca's handful of pages cost nothing;
* allocations larger than half the young generation go straight to the old
  generation (the "humongous" path), which is how Deca's multi-megabyte
  pages behave on a real JVM;
* when even a full collection cannot make room, registered *pressure
  handlers* (the cache manager's LRU eviction, shuffle spill) are asked to
  release space before the heap declares :class:`OutOfMemoryError`.

All collection costs advance the owning :class:`~repro.simtime.SimClock` and
are logged into :class:`~repro.jvm.stats.GcStats`.
"""

from __future__ import annotations

import math
from typing import Callable

from ..config import DecaConfig
from ..errors import AllocationError, OutOfMemoryError
from ..simtime import SimClock
from .collectors import CollectorModel
from .objects import AllocationGroup, Lifetime, LiveBytes
from .stats import GcEvent, GcKind, GcStats

# A pressure handler tries to release at least the requested number of live
# bytes (by freeing allocation groups) and returns the bytes it released.
PressureHandler = Callable[[int], int]

# A GC listener observes every collection as it is recorded; the executor
# forwards these into the run's trace and the heap profiler accumulates
# its pause timeline from the same stream.
GcListener = Callable[[GcEvent], None]

# Occupancy of the old generation that triggers a full collection.
FULL_GC_THRESHOLD = 0.95
# Pinned objects surviving this many minor collections are promoted.
TENURING_THRESHOLD = 1
# Fraction of "temporary" young objects that happen to survive a minor
# collection (they were still referenced by an in-flight computation).
TEMP_SURVIVAL_RATE = 0.01


class SimHeap:
    """A generational heap with simulated tracing collections."""

    def __init__(self, config: DecaConfig, clock: SimClock,
                 name: str = "heap") -> None:
        self.config = config
        self.clock = clock
        self.name = name
        # The config is frozen: the capacities are computed once, not on
        # every allocation.
        self.young_capacity = config.young_bytes
        self.old_capacity = config.old_bytes
        # Larger allocations go straight to the old generation.
        self._humongous_bytes = self.young_capacity // 2
        self.collector = CollectorModel(config.gc_algorithm)
        self.stats = GcStats()
        self._groups: dict[int, AllocationGroup] = {}
        # Live bytes per generation, kept current by the groups' mutators.
        self._live = LiveBytes()
        # Garbage = bytes of freed groups not yet swept by a collection.
        self._young_garbage = 0
        self._old_garbage = 0
        self._pressure_handlers: list[PressureHandler] = []
        self._gc_listeners: list[GcListener] = []
        self._in_full_gc = False

    # -- capacity and occupancy ------------------------------------------------
    @property
    def young_live_bytes(self) -> int:
        return self._live.young

    @property
    def old_live_bytes(self) -> int:
        return self._live.old

    @property
    def young_used_bytes(self) -> int:
        """Live young bytes plus unswept young garbage."""
        return self._live.young + self._young_garbage

    @property
    def old_used_bytes(self) -> int:
        """Live old bytes plus unswept old garbage."""
        return self._live.old + self._old_garbage

    @property
    def live_objects(self) -> int:
        """Total live object population (what full collections must trace)."""
        return sum(g.live_objects for g in self._groups.values())

    @property
    def live_bytes(self) -> int:
        return self._live.young + self._live.old

    # -- group management -------------------------------------------------------
    def new_group(self, name: str, lifetime: Lifetime) -> AllocationGroup:
        """Create and register an allocation group."""
        group = AllocationGroup(name, lifetime, self._live)
        self._groups[group.group_id] = group
        return group

    def free_group(self, group: AllocationGroup) -> None:
        """End a group's lifetime: its objects become unswept garbage."""
        if group.group_id not in self._groups:
            raise AllocationError(
                f"group {group.name!r} does not belong to heap {self.name!r}")
        self._young_garbage += group.young_bytes
        self._old_garbage += group.old_bytes
        group.free()
        del self._groups[group.group_id]

    def add_pressure_handler(self, handler: PressureHandler) -> None:
        """Register a callback asked to release space under memory pressure."""
        self._pressure_handlers.append(handler)

    def add_gc_listener(self, listener: GcListener) -> None:
        """Register a callback observing every recorded collection."""
        self._gc_listeners.append(listener)

    def _record_gc(self, event: GcEvent) -> None:
        self.stats.record(event)
        for listener in self._gc_listeners:
            listener(event)

    # -- allocation ---------------------------------------------------------------
    def allocate(self, group: AllocationGroup, objects: int,
                 nbytes: int) -> None:
        """Allocate *objects* totalling *nbytes* into *group*.

        Triggers minor/full collections as the generations fill, exactly in
        the order a Hotspot heap would.
        """
        if group.group_id not in self._groups:
            raise AllocationError(
                f"group {group.name!r} does not belong to heap {self.name!r}")
        if objects < 0 or nbytes < 0:
            raise AllocationError("allocation sizes cannot be negative")
        if nbytes == 0 and objects == 0:
            return
        if nbytes > self.config.heap_bytes:
            raise OutOfMemoryError(
                f"{self.name}: requested {nbytes} B exceeds the "
                f"{self.config.heap_bytes} B heap")

        if nbytes > self._humongous_bytes:
            # Humongous allocation: straight into the old generation.
            self._ensure_old_space(nbytes)
            group.record_allocation(objects, nbytes, into_old=True)
            return

        young_capacity = self.young_capacity
        if self._live.young + self._young_garbage + nbytes > young_capacity:
            self._make_young_space(nbytes, young_capacity)
        # ``record_allocation`` without its second round of checks: the
        # sizes were checked above, only a freed group is left to refuse.
        if group.freed:
            raise AllocationError(
                f"allocation into freed group {group.name!r}")
        group.young_objects += objects
        group.young_bytes += nbytes
        group.totals.young += nbytes

    def _make_young_space(self, nbytes: int, young_capacity: int) -> None:
        self.minor_gc()
        if self.young_used_bytes + nbytes > young_capacity:
            # Survivors pinned in the young generation still block us.
            self.full_gc()
        if self.young_used_bytes + nbytes > young_capacity:
            self._relieve_pressure(nbytes)
        if self.young_used_bytes + nbytes > young_capacity:
            raise OutOfMemoryError(
                f"{self.name}: young generation exhausted "
                f"({self.young_used_bytes}/{young_capacity} B, "
                f"need {nbytes} B)")

    # -- collections -----------------------------------------------------------
    def minor_gc(self) -> GcEvent:
        """Scavenge the young generation."""
        traced = 0
        survivor_bytes = 0
        promoted_bytes = 0
        reclaimed = self._young_garbage
        promotions: list[AllocationGroup] = []

        for group in self._groups.values():
            if group.young_objects == 0 and group.young_bytes == 0:
                continue
            if group.lifetime is Lifetime.PINNED:
                traced += group.young_objects
                survivor_bytes += group.young_bytes
                group.age += 1
                if group.age >= TENURING_THRESHOLD:
                    promotions.append(group)
            else:
                if group.age >= 1:
                    # Survivors of the previous scavenge hit the tenuring
                    # threshold and get promoted — but their references are
                    # gone, so they arrive in the old generation as floating
                    # garbage that only a full collection can reclaim.
                    # This is exactly the churn that drags Spark into
                    # repeated full GCs once the cache fills the old
                    # generation (§2.2).
                    _, dead = group.clear_young()
                    self._old_garbage += dead
                    promoted_bytes += dead
                else:
                    survivors = math.ceil(
                        group.young_objects * TEMP_SURVIVAL_RATE)
                    surv_bytes = math.ceil(
                        group.young_bytes * TEMP_SURVIVAL_RATE)
                    reclaimed += group.young_bytes - surv_bytes
                    self._live.young -= group.young_bytes - surv_bytes
                    group.young_objects = survivors
                    group.young_bytes = surv_bytes
                    group.age = 1
                    traced += survivors
                    survivor_bytes += surv_bytes

        for group in promotions:
            _, nbytes = group.promote_young()
            promoted_bytes += nbytes
        self._young_garbage = 0

        cost = self.collector.minor_cost(traced, survivor_bytes)
        self.clock.advance(cost.total_ticks)
        event = GcEvent(
            kind=GcKind.MINOR,
            start_ticks=self.clock.ticks - cost.total_ticks,
            pause_ticks=cost.pause_ticks,
            concurrent_ticks=cost.concurrent_ticks,
            traced_objects=traced,
            reclaimed_bytes=reclaimed,
            promoted_bytes=promoted_bytes,
            live_objects_after=self.live_objects,
            used_bytes_after=self.young_used_bytes + self.old_used_bytes,
        )
        self._record_gc(event)

        if self.old_used_bytes > FULL_GC_THRESHOLD * self.old_capacity:
            self.full_gc()
        if self.old_used_bytes > self.old_capacity:
            # Promotion overflowed the old generation and the full
            # collection could not reclaim enough: ask the pressure
            # handlers (cache eviction, spill) before giving up.
            overflow = self.old_used_bytes - self.old_capacity
            self._relieve_pressure(overflow)
            if self.old_used_bytes > self.old_capacity:
                raise OutOfMemoryError(
                    f"{self.name}: promotion overflowed the old generation "
                    f"({self.old_used_bytes}/{self.old_capacity} B)")
        return event

    def full_gc(self) -> GcEvent | None:
        """Collect the whole heap (both generations).

        Traces every live object — the cost the paper's Table 3 measures —
        then sweeps all accumulated garbage and promotes surviving pinned
        young objects.
        """
        if self._in_full_gc:
            return None
        self._in_full_gc = True
        try:
            traced = 0
            reclaimed = self._young_garbage + self._old_garbage
            promoted_bytes = 0

            for group in self._groups.values():
                if group.lifetime is Lifetime.PINNED:
                    traced += group.live_objects
                    if group.young_bytes:
                        _, nbytes = group.promote_young()
                        promoted_bytes += nbytes
                else:
                    # Full collections kill everything only reachable from
                    # dead UDF frames, old or young.
                    _, dead_young = group.clear_young()
                    dead_old = group.old_bytes
                    self._live.old -= dead_old
                    group.old_objects = 0
                    group.old_bytes = 0
                    reclaimed += dead_young + dead_old

            self._young_garbage = 0
            self._old_garbage = 0

            cost = self.collector.full_cost(traced, self.live_bytes)
            self.clock.advance(cost.total_ticks)
            event = GcEvent(
                kind=GcKind.FULL,
                start_ticks=self.clock.ticks - cost.total_ticks,
                pause_ticks=cost.pause_ticks,
                concurrent_ticks=cost.concurrent_ticks,
                traced_objects=traced,
                reclaimed_bytes=reclaimed,
                promoted_bytes=promoted_bytes,
                live_objects_after=self.live_objects,
                used_bytes_after=self.young_used_bytes + self.old_used_bytes,
            )
            self._record_gc(event)
            return event
        finally:
            self._in_full_gc = False

    # -- internals ----------------------------------------------------------------
    def _ensure_old_space(self, nbytes: int) -> None:
        if self.old_used_bytes + nbytes <= self.old_capacity:
            # Even when it fits, crossing the occupancy threshold triggers
            # a (possibly futile) full collection first — §2.2's pathology.
            if (self.old_used_bytes + nbytes
                    > FULL_GC_THRESHOLD * self.old_capacity):
                self.full_gc()
            return
        self.full_gc()
        if self.old_used_bytes + nbytes <= self.old_capacity:
            return
        self._relieve_pressure(nbytes)
        if self.old_used_bytes + nbytes > self.old_capacity:
            raise OutOfMemoryError(
                f"{self.name}: old generation exhausted "
                f"({self.old_used_bytes}/{self.old_capacity} B, "
                f"need {nbytes} B)")

    def _relieve_pressure(self, nbytes: int) -> None:
        """Ask pressure handlers (cache eviction, spill) to release space."""
        for handler in self._pressure_handlers:
            freed = handler(nbytes)
            if freed > 0:
                self.full_gc()
            if (self.old_used_bytes + nbytes <= self.old_capacity
                    and self.young_used_bytes + nbytes
                    <= self.young_capacity):
                return

    def __repr__(self) -> str:
        return (
            f"SimHeap({self.name!r}, young={self.young_used_bytes}/"
            f"{self.young_capacity} B, old={self.old_used_bytes}/"
            f"{self.old_capacity} B, live_objects={self.live_objects})"
        )
