"""GC event log and aggregate statistics for the simulated heap."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..simtime import MsView


class GcKind(enum.Enum):
    """Which collection ran."""

    MINOR = "minor"
    FULL = "full"


@dataclass(frozen=True)
class GcEvent:
    """One garbage collection, as the paper's GC logs would record it."""

    kind: GcKind
    start_ticks: int
    pause_ticks: int
    concurrent_ticks: int
    traced_objects: int
    reclaimed_bytes: int
    promoted_bytes: int
    live_objects_after: int
    used_bytes_after: int

    pause_ms = MsView()
    concurrent_ms = MsView()

    @property
    def total_ticks(self) -> int:
        """Pause plus concurrent collector CPU time."""
        return self.pause_ticks + self.concurrent_ticks


@dataclass
class GcStats:
    """Aggregate collector statistics for one simulated heap."""

    events: list[GcEvent] = field(default_factory=list)

    def record(self, event: GcEvent) -> None:
        self.events.append(event)

    # -- aggregates -----------------------------------------------------------
    @property
    def minor_count(self) -> int:
        return sum(1 for e in self.events if e.kind is GcKind.MINOR)

    @property
    def full_count(self) -> int:
        return sum(1 for e in self.events if e.kind is GcKind.FULL)

    @property
    def pause_ticks(self) -> int:
        """Total stop-the-world time (what the paper reports as "GC time")."""
        return sum(e.pause_ticks for e in self.events)

    @property
    def concurrent_ticks(self) -> int:
        """Total concurrent collector CPU time (CMS/G1 background work)."""
        return sum(e.concurrent_ticks for e in self.events)

    pause_ms = MsView()
    concurrent_ms = MsView()

    @property
    def minor_pause_ticks(self) -> int:
        return sum(e.pause_ticks for e in self.events if e.kind is GcKind.MINOR)

    @property
    def full_pause_ticks(self) -> int:
        return sum(e.pause_ticks for e in self.events if e.kind is GcKind.FULL)

    @property
    def reclaimed_bytes(self) -> int:
        return sum(e.reclaimed_bytes for e in self.events)

    def merged_with(self, other: "GcStats") -> "GcStats":
        """Combine two logs (e.g. across executors), ordered by start time."""
        merged = GcStats(events=sorted(
            self.events + other.events, key=lambda e: e.start_ticks))
        return merged
