"""Collector cost models (Parallel Scavenge, CMS, G1).

The cost of a collection is dominated by tracing the live object graph
(§2.1), so both minor and full collections charge time proportional to the
number of live objects they must visit, plus per-byte copy/sweep terms.

Stop-the-world collectors (Parallel Scavenge) charge the whole cost as an
application pause.  Mostly-concurrent collectors (CMS, G1) run the old-gen
collection on background threads: only ``pause_fraction`` of the work stops
the world, the rest overlaps with the application except for a
``concurrent_tax`` interference slowdown.  In exchange their *young*
collections are more expensive (``minor_multiplier``: card tables,
remembered-set refinement) — which is why, in the paper's Table 4, CMS/G1
rescue the GC-bound LR job yet make the shuffle-heavy (minor-GC-heavy) PR
job slower overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import GcAlgorithm, GcCostModel, gc_cost_model
from ..simtime import ms_to_ticks


@dataclass(frozen=True)
class CollectionCost:
    """Time split of one collection, in ticks: the fractional multipliers
    make each part a fraction of a tick, so each is rounded once."""

    pause_ticks: int
    concurrent_ticks: int

    @property
    def total_ticks(self) -> int:
        return self.pause_ticks + self.concurrent_ticks


class CollectorModel:
    """Maps live-set shape to collection cost for one collector."""

    def __init__(self, algorithm: GcAlgorithm,
                 costs: GcCostModel | None = None) -> None:
        self.algorithm = algorithm
        self.costs = costs if costs is not None else gc_cost_model(algorithm)

    # -- minor collections ---------------------------------------------------
    def minor_cost(self, live_young_objects: int,
                   survivor_bytes: int) -> CollectionCost:
        """Cost of scavenging the young generation.

        Young collections are stop-the-world for all three collectors; cost
        scales with the *surviving* population that must be traced and
        copied — dead young objects are free, which is the generational
        hypothesis the paper leans on (§2.1).
        """
        c = self.costs
        work = c.minor_multiplier * (
            c.minor_base_ms
            + c.minor_trace_per_object_ms * live_young_objects
            + c.minor_copy_per_byte_ms * survivor_bytes
        )
        return CollectionCost(pause_ticks=ms_to_ticks(work),
                              concurrent_ticks=0)

    # -- full collections -----------------------------------------------------
    def full_cost(self, live_objects: int, live_bytes: int) -> CollectionCost:
        """Cost of collecting the whole heap.

        The trace term visits every live object — for Spark that means every
        cached record, every collection, which is the "unavailing full GC"
        effect of §2.2; for Deca it means a handful of pages.
        """
        c = self.costs
        work = (
            c.full_base_ms
            + c.full_trace_per_object_ms * live_objects
            + c.full_sweep_per_byte_ms * live_bytes
        )
        pause = work * c.pause_fraction
        # The rest of the work runs concurrently: it does not stop the
        # application, but the collector threads steal cycles — only the
        # interference fraction reaches the application clock.
        concurrent = work * (1.0 - c.pause_fraction) * c.concurrent_tax
        return CollectionCost(pause_ticks=ms_to_ticks(pause),
                              concurrent_ticks=ms_to_ticks(concurrent))

    def __repr__(self) -> str:
        return f"CollectorModel({self.algorithm.value})"
