"""Allocation groups: cohorts of simulated objects sharing one lifetime.

The paper's whole premise is that data-processing objects die in cohorts —
a cached RDD block, a shuffle buffer, the temporaries of one UDF call — so
the simulated heap tracks *groups* rather than individual objects.  A group
records how many objects it holds, their total byte footprint, and which
generation those bytes currently sit in.

Two lifetimes exist:

* :attr:`Lifetime.TEMPORARY` — objects referenced only by UDF local
  variables; they are garbage by the next minor collection (§4.2 "UDF
  variables").
* :attr:`Lifetime.PINNED` — objects reachable from a long-living container
  (cache block, shuffle buffer, Deca page group); they survive collections
  and get promoted until :meth:`AllocationGroup.free` is called when their
  container's lifetime ends.
"""

from __future__ import annotations

import enum
import itertools

from ..errors import AllocationError


class Lifetime(enum.Enum):
    """Expected lifetime class of an allocation group."""

    TEMPORARY = "temporary"
    PINNED = "pinned"


_group_ids = itertools.count(1)


class LiveBytes:
    """Running live-byte totals per generation over a set of groups.

    A heap hands one instance to every group it creates; each group
    mutator applies its delta here, so heap occupancy is read in O(1).
    """

    __slots__ = ("young", "old")

    def __init__(self) -> None:
        self.young = 0
        self.old = 0


class AllocationGroup:
    """A cohort of objects with a shared lifetime inside one heap.

    The group does not store payloads; it is pure accounting.  Counters are
    split by generation so collections can trace/promote the right subset:

    ``young_objects`` / ``young_bytes``
        allocated since the last minor collection (or survivors still aging);
    ``old_objects`` / ``old_bytes``
        promoted tenured objects.
    """

    __slots__ = (
        "group_id",
        "name",
        "lifetime",
        "young_objects",
        "young_bytes",
        "old_objects",
        "old_bytes",
        "age",
        "freed",
        "totals",
    )

    def __init__(self, name: str, lifetime: Lifetime,
                 totals: LiveBytes | None = None) -> None:
        self.group_id: int = next(_group_ids)
        self.name = name
        self.lifetime = lifetime
        # The owning heap's totals (a standalone group keeps its own).
        self.totals = totals if totals is not None else LiveBytes()
        self.young_objects = 0
        self.young_bytes = 0
        self.old_objects = 0
        self.old_bytes = 0
        # Number of minor collections the current young residents survived.
        self.age = 0
        self.freed = False

    # -- accounting ---------------------------------------------------------
    @property
    def live_objects(self) -> int:
        """Objects still reachable through this group."""
        if self.freed:
            return 0
        return self.young_objects + self.old_objects

    @property
    def live_bytes(self) -> int:
        """Bytes still reachable through this group."""
        if self.freed:
            return 0
        return self.young_bytes + self.old_bytes

    def record_allocation(self, objects: int, nbytes: int, *,
                          into_old: bool = False) -> None:
        """Account *objects* totalling *nbytes* allocated into this group."""
        if self.freed:
            raise AllocationError(f"allocation into freed group {self.name!r}")
        if objects < 0 or nbytes < 0:
            raise AllocationError("allocation sizes cannot be negative")
        if into_old:
            self.old_objects += objects
            self.old_bytes += nbytes
            self.totals.old += nbytes
        else:
            self.young_objects += objects
            self.young_bytes += nbytes
            self.totals.young += nbytes

    def promote_young(self) -> tuple[int, int]:
        """Move all young residents to the old generation.

        Returns ``(objects, bytes)`` promoted.
        """
        objects, nbytes = self.clear_young()
        self.old_objects += objects
        self.old_bytes += nbytes
        self.totals.old += nbytes
        return objects, nbytes

    def clear_young(self) -> tuple[int, int]:
        """Drop all young residents (they died). Returns what was dropped."""
        objects, nbytes = self.young_objects, self.young_bytes
        self.totals.young -= nbytes
        self.young_objects = 0
        self.young_bytes = 0
        self.age = 0
        return objects, nbytes

    def shrink(self, nbytes: int) -> None:
        """Give back *nbytes* without killing objects (a realloc).

        Used when a byte array is trimmed to its used size (Deca trims the
        last page of a sealed block).  Old-generation bytes are preferred;
        the remainder comes out of the young residents.
        """
        if self.freed:
            raise AllocationError(f"shrink of freed group {self.name!r}")
        if nbytes < 0 or nbytes > self.young_bytes + self.old_bytes:
            raise AllocationError(
                f"cannot shrink {self.name!r} by {nbytes} B "
                f"(holds {self.young_bytes + self.old_bytes} B)")
        from_old = min(nbytes, self.old_bytes)
        self.old_bytes -= from_old
        self.young_bytes -= nbytes - from_old
        self.totals.old -= from_old
        self.totals.young -= nbytes - from_old

    def free(self) -> tuple[int, int]:
        """Mark every object in the group dead.

        Called when the owning container's lifetime ends.  Returns the
        ``(objects, bytes)`` that just became garbage; the heap reclaims the
        space at its next collection of the relevant generation.
        """
        if self.freed:
            raise AllocationError(f"group {self.name!r} freed twice")
        self.freed = True
        dead_objects = self.young_objects + self.old_objects
        dead_bytes = self.young_bytes + self.old_bytes
        self.totals.young -= self.young_bytes
        self.totals.old -= self.old_bytes
        self.young_objects = self.young_bytes = 0
        self.old_objects = self.old_bytes = 0
        return dead_objects, dead_bytes

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return (
            f"AllocationGroup({self.name!r}, {self.lifetime.value}, {state}, "
            f"young={self.young_objects}obj/{self.young_bytes}B, "
            f"old={self.old_objects}obj/{self.old_bytes}B)"
        )
