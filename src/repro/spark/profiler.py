"""Live-object / GC sampling — the JProfiler stand-in for Figs. 8(a)/9(a).

The paper periodically records, per executor, the number of alive objects
of one tracked UDT (``Tuple2`` for WC, ``LabeledPoint`` for LR) and the
cumulative GC time.  :class:`HeapProfiler` does the same on the simulated
clock: the executor calls :meth:`maybe_sample` inside its task loops, and a
sample is taken whenever the clock has crossed the next sampling point.

The profiler is a *consumer of the heap's GC event stream* (the same
stream :mod:`repro.obs` exports as trace events): it subscribes via
:meth:`~repro.jvm.heap.SimHeap.add_gc_listener` and accumulates its pause
timeline from the events it receives, rather than re-reading aggregate
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..jvm.heap import SimHeap
from ..jvm.stats import GcEvent
from ..simtime import MsView, SimClock, ms_to_ticks


@dataclass(frozen=True)
class ProfileSample:
    """One sampling point of the live-object/GC-time timeline."""

    time_ticks: int
    live_objects: int
    tracked_objects: int
    gc_pause_ticks: int

    time_ms = MsView()
    gc_pause_ms = MsView()


class HeapProfiler:
    """Periodic sampler of one executor's heap.

    *tracked_counter* returns the current population of the UDT under
    observation (e.g. live ``LabeledPoint`` count — cached records plus
    in-flight temporaries).  Samples land on the exact tick grid
    ``k * period``.
    """

    def __init__(self, heap: SimHeap, clock: SimClock, period_ms: float,
                 tracked_counter: Callable[[], int] | None = None) -> None:
        self.period_ticks = ms_to_ticks(period_ms)
        if self.period_ticks <= 0:
            raise ValueError("sampling period must be positive")
        self.heap = heap
        self.clock = clock
        self.tracked_counter = tracked_counter
        self.samples: list[ProfileSample] = []
        self._next_sample = 0
        # Pauses recorded before this profiler attached still count toward
        # the cumulative timeline; later ones arrive through the stream.
        self._gc_pause_ticks = heap.stats.pause_ticks
        heap.add_gc_listener(self._on_gc_event)

    def _on_gc_event(self, event: GcEvent) -> None:
        """GC event stream consumer: accumulate the pause timeline."""
        self._gc_pause_ticks += event.pause_ticks

    def maybe_sample(self) -> None:
        """Take samples for every period boundary the clock has crossed."""
        while self.clock.ticks >= self._next_sample:
            self._take(self._next_sample)
            self._next_sample += self.period_ticks

    def force_sample(self) -> None:
        """Take one sample right now (used at run boundaries)."""
        self._take(self.clock.ticks)

    def _take(self, when: int) -> None:
        tracked = (self.tracked_counter()
                   if self.tracked_counter is not None else 0)
        self.samples.append(ProfileSample(
            time_ticks=when,
            live_objects=self.heap.live_objects,
            tracked_objects=tracked,
            gc_pause_ticks=self._gc_pause_ticks,
        ))

    def timeline(self) -> list[tuple[float, int, float]]:
        """``(time, tracked_objects, cumulative_gc_ms)`` rows (Fig. 8a)."""
        return [(s.time_ms, s.tracked_objects, s.gc_pause_ms)
                for s in self.samples]
