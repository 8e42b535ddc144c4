"""Tests for GC statistics, collector cost models and allocation groups."""

import pytest

from repro.config import GcAlgorithm, GcCostModel
from repro.errors import AllocationError
from repro.jvm import CollectorModel, GcEvent, GcKind, GcStats, Lifetime
from repro.jvm.objects import AllocationGroup
from repro.simtime import ms_to_ticks


def event(kind=GcKind.MINOR, start=0.0, pause=1.0, concurrent=0.0,
          reclaimed=0):
    return GcEvent(kind=kind, start_ticks=ms_to_ticks(start),
                   pause_ticks=ms_to_ticks(pause),
                   concurrent_ticks=ms_to_ticks(concurrent),
                   traced_objects=0,
                   reclaimed_bytes=reclaimed, promoted_bytes=0,
                   live_objects_after=0, used_bytes_after=0)


class TestGcStats:
    def test_counts_by_kind(self):
        stats = GcStats()
        stats.record(event(GcKind.MINOR))
        stats.record(event(GcKind.MINOR))
        stats.record(event(GcKind.FULL))
        assert stats.minor_count == 2
        assert stats.full_count == 1

    def test_pause_split_by_kind(self):
        stats = GcStats()
        stats.record(event(GcKind.MINOR, pause=1.0))
        stats.record(event(GcKind.FULL, pause=10.0))
        assert stats.minor_pause_ticks == ms_to_ticks(1.0)
        assert stats.full_pause_ticks == ms_to_ticks(10.0)
        assert stats.pause_ms == 11.0

    def test_reclaimed_total(self):
        stats = GcStats()
        stats.record(event(reclaimed=100))
        stats.record(event(reclaimed=250))
        assert stats.reclaimed_bytes == 350

    def test_merged_with_sorts_by_start(self):
        a = GcStats()
        a.record(event(start=5.0))
        b = GcStats()
        b.record(event(start=1.0))
        b.record(event(start=9.0))
        merged = a.merged_with(b)
        assert [e.start_ticks for e in merged.events] == [
            ms_to_ticks(ms) for ms in (1.0, 5.0, 9.0)]

    def test_total_cost(self):
        e = event(pause=2.0, concurrent=3.0)
        assert e.total_ticks == ms_to_ticks(5.0)


class TestCollectorModel:
    def test_minor_scales_with_survivors(self):
        model = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE)
        small = model.minor_cost(100, 1000)
        big = model.minor_cost(100_000, 1_000_000)
        assert big.pause_ticks > 10 * small.pause_ticks

    def test_full_scales_with_live_objects(self):
        model = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE)
        small = model.full_cost(1_000, 100_000)
        big = model.full_cost(1_000_000, 100_000_000)
        assert big.pause_ticks > 50 * small.pause_ticks

    def test_ps_has_no_concurrent_work(self):
        model = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE)
        assert model.full_cost(10_000, 1_000_000).concurrent_ticks == 0

    def test_concurrent_total_below_ps_pause(self):
        """CMS/G1 full collections cost the application less wall time
        than a stop-the-world collection of the same live set."""
        live, nbytes = 500_000, 50_000_000
        ps = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE).full_cost(
            live, nbytes)
        for algorithm in (GcAlgorithm.CMS, GcAlgorithm.G1):
            cost = CollectorModel(algorithm).full_cost(live, nbytes)
            assert cost.total_ticks < ps.total_ticks
            assert cost.pause_ticks < 0.2 * ps.pause_ticks

    def test_concurrent_minors_cost_more(self):
        ps = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE)
        g1 = CollectorModel(GcAlgorithm.G1)
        assert g1.minor_cost(10_000, 1_000_000).pause_ticks > \
            ps.minor_cost(10_000, 1_000_000).pause_ticks

    def test_custom_cost_model(self):
        model = CollectorModel(GcAlgorithm.PARALLEL_SCAVENGE,
                               costs=GcCostModel(minor_base_ms=100.0))
        assert model.minor_cost(0, 0).pause_ticks == ms_to_ticks(100.0)


class TestAllocationGroup:
    def test_promote_moves_all_young(self):
        group = AllocationGroup("g", Lifetime.PINNED)
        group.record_allocation(10, 1000)
        objects, nbytes = group.promote_young()
        assert (objects, nbytes) == (10, 1000)
        assert group.young_objects == 0
        assert group.old_objects == 10

    def test_shrink_prefers_old(self):
        group = AllocationGroup("g", Lifetime.PINNED)
        group.record_allocation(1, 100, into_old=True)
        group.record_allocation(1, 50)
        group.shrink(120)
        assert group.old_bytes == 0
        assert group.young_bytes == 30

    def test_shrink_beyond_holdings_rejected(self):
        group = AllocationGroup("g", Lifetime.PINNED)
        group.record_allocation(1, 10)
        with pytest.raises(AllocationError):
            group.shrink(11)

    def test_free_reports_dead_space(self):
        group = AllocationGroup("g", Lifetime.PINNED)
        group.record_allocation(5, 500)
        group.record_allocation(5, 500, into_old=True)
        assert group.free() == (10, 1000)
        assert group.live_objects == 0

    def test_negative_allocation_rejected(self):
        group = AllocationGroup("g", Lifetime.TEMPORARY)
        with pytest.raises(AllocationError):
            group.record_allocation(-1, 10)
