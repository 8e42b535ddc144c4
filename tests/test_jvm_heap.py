"""Tests for repro.jvm.heap — the generational simulated heap."""

import math

import pytest

from repro.config import DecaConfig, GcAlgorithm, MB
from repro.errors import AllocationError, OutOfMemoryError
from repro.jvm import GcKind, Lifetime, SimHeap
from repro.jvm.heap import TEMP_SURVIVAL_RATE
from repro.jvm.objects import AllocationGroup
from repro.simtime import SimClock


def make_heap(heap_mb=32, **overrides) -> SimHeap:
    cfg = DecaConfig(heap_bytes=heap_mb * MB, **overrides)
    return SimHeap(cfg, SimClock(), "test-heap")


class TestAllocationBasics:
    def test_simple_allocation_lands_in_young(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        heap.allocate(group, 10, 1000)
        assert group.young_objects == 10
        assert heap.young_used_bytes == 1000
        assert heap.old_used_bytes == 0

    def test_zero_allocation_is_noop(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        heap.allocate(group, 0, 0)
        assert heap.live_objects == 0

    def test_rejects_negative_sizes(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        with pytest.raises(AllocationError):
            heap.allocate(group, -1, 10)

    def test_rejects_foreign_group(self):
        heap_a = make_heap()
        heap_b = make_heap()
        group = heap_a.new_group("g", Lifetime.PINNED)
        with pytest.raises(AllocationError):
            heap_b.allocate(group, 1, 10)

    def test_humongous_allocation_goes_to_old(self):
        heap = make_heap()
        group = heap.new_group("pages", Lifetime.PINNED)
        big = heap.young_capacity  # larger than half of young
        heap.allocate(group, 1, big)
        assert group.old_bytes == big
        assert heap.young_used_bytes == 0

    def test_impossible_allocation_raises(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        with pytest.raises(OutOfMemoryError):
            heap.allocate(group, 1, heap.config.heap_bytes + 1)


class TestAllocateRefusals:
    """``allocate`` records a young allocation in place; every refusal
    keeps its error type and message, and leaves the heap untouched."""

    def test_freed_group_still_registered(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.TEMPORARY)
        group.free()            # not through the heap: still registered
        for nbytes in (8, heap.young_capacity):     # young, humongous
            with pytest.raises(AllocationError,
                               match=r"^allocation into freed group 'g'$"):
                heap.allocate(group, 1, nbytes)
        assert (heap.young_used_bytes, heap.old_used_bytes) == (0, 0)
        assert (group.young_objects, group.old_objects) == (0, 0)

    def test_freed_through_the_heap_is_unregistered(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        heap.free_group(group)
        with pytest.raises(AllocationError, match=r"^group 'g' does not "
                           r"belong to heap 'test-heap'$"):
            heap.allocate(group, 1, 8)

    def test_unregistered_group(self):
        heap = make_heap()
        with pytest.raises(AllocationError, match=r"^group 'stray' does "
                           r"not belong to heap 'test-heap'$"):
            heap.allocate(AllocationGroup("stray", Lifetime.PINNED), 1, 8)

    @pytest.mark.parametrize("objects, nbytes", [(-1, 8), (1, -8), (-1, -8)])
    def test_negative_sizes(self, objects, nbytes):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        with pytest.raises(AllocationError,
                           match=r"^allocation sizes cannot be negative$"):
            heap.allocate(group, objects, nbytes)
        assert group.live_bytes == 0

    def test_request_over_the_heap_size(self):
        heap = make_heap(heap_mb=1)
        group = heap.new_group("g", Lifetime.PINNED)
        with pytest.raises(OutOfMemoryError, match=r"^test-heap: requested "
                           r"1048577 B exceeds the 1048576 B heap$"):
            heap.allocate(group, 1, MB + 1)

    def test_humongous_threshold_is_half_the_young_generation(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        half = heap.young_capacity // 2
        heap.allocate(group, 1, half)
        assert (group.young_bytes, group.old_bytes) == (half, 0)
        heap.allocate(group, 2, half + 1)
        assert (group.young_bytes, group.old_bytes) == (half, half + 1)
        assert (group.young_objects, group.old_objects) == (1, 2)
        assert (heap.young_live_bytes, heap.old_live_bytes) \
            == (half, half + 1)


class TestMinorGc:
    def test_filling_young_triggers_minor_gc(self):
        heap = make_heap()
        temp = heap.new_group("temp", Lifetime.TEMPORARY)
        chunk = heap.young_capacity // 4
        for _ in range(8):
            heap.allocate(temp, 1000, chunk)
        assert heap.stats.minor_count >= 1

    def test_temporaries_mostly_die(self):
        heap = make_heap()
        temp = heap.new_group("temp", Lifetime.TEMPORARY)
        heap.allocate(temp, 1000, 100_000)
        heap.minor_gc()
        # Only the survival fraction outlives the scavenge.
        assert temp.live_objects == math.ceil(1000 * TEMP_SURVIVAL_RATE) == 10
        assert heap.young_used_bytes == math.ceil(100_000 * TEMP_SURVIVAL_RATE)

    def test_survivor_fraction_ages_then_dies(self):
        heap = make_heap()
        temp = heap.new_group("temp", Lifetime.TEMPORARY)
        heap.allocate(temp, 1000, 100_000)
        heap.minor_gc()
        assert temp.young_objects == 10  # 1% survived
        heap.minor_gc()
        assert temp.young_objects == 0  # survivors died at the next cycle
        assert heap.young_used_bytes == 0

    def test_pinned_objects_promote(self):
        heap = make_heap()
        cache = heap.new_group("cache", Lifetime.PINNED)
        heap.allocate(cache, 500, 50_000)
        heap.minor_gc()
        assert cache.old_objects == 500
        assert cache.young_objects == 0
        assert heap.old_used_bytes == 50_000

    def test_minor_gc_advances_clock(self):
        heap = make_heap()
        before = heap.clock.now_ms
        heap.minor_gc()
        assert heap.clock.now_ms > before

    def test_minor_cost_scales_with_survivors(self):
        light = make_heap()
        heavy = make_heap()
        g_light = light.new_group("c", Lifetime.PINNED)
        g_heavy = heavy.new_group("c", Lifetime.PINNED)
        light.allocate(g_light, 10, 1000)
        heavy.allocate(g_heavy, 100_000, 1_000_000)
        e_light = light.minor_gc()
        e_heavy = heavy.minor_gc()
        assert e_heavy.pause_ms > e_light.pause_ms


class TestFullGc:
    def test_full_gc_traces_all_live_objects(self):
        heap = make_heap()
        cache = heap.new_group("cache", Lifetime.PINNED)
        heap.allocate(cache, 12_345, 1_000_000)
        heap.minor_gc()
        event = heap.full_gc()
        assert event.traced_objects == 12_345

    def test_full_gc_reclaims_freed_groups(self):
        heap = make_heap()
        cache = heap.new_group("cache", Lifetime.PINNED)
        heap.allocate(cache, 100, 1_000_000)
        heap.minor_gc()  # promote
        heap.free_group(cache)
        assert heap.old_used_bytes == 1_000_000  # garbage not yet swept
        heap.full_gc()
        assert heap.old_used_bytes == 0

    def test_old_pressure_triggers_full_gc(self):
        heap = make_heap(heap_mb=8)
        temp = heap.new_group("temp", Lifetime.TEMPORARY)
        cache = heap.new_group("cache", Lifetime.PINNED)
        # Fill the old gen with promoted cache data until past threshold.
        chunk = heap.young_capacity // 3
        with pytest.raises(OutOfMemoryError):
            for _ in range(1000):
                heap.allocate(cache, 100, chunk)
                heap.allocate(temp, 100, chunk // 10)
        assert heap.stats.full_count >= 1

    def test_useless_full_gc_keeps_cached_objects(self):
        """The paper's §2.2 pathology: full GCs that reclaim nothing."""
        heap = make_heap()
        cache = heap.new_group("cache", Lifetime.PINNED)
        heap.allocate(cache, 1000, 100_000)
        heap.minor_gc()
        live_before = heap.live_objects
        event = heap.full_gc()
        assert heap.live_objects == live_before
        assert event.reclaimed_bytes == 0


class TestPressureHandlers:
    def test_handler_is_invoked_on_pressure(self):
        heap = make_heap(heap_mb=8)
        cache = heap.new_group("cache", Lifetime.PINNED)
        calls = []

        def evict(needed: int) -> int:
            calls.append(needed)
            if not cache.freed:
                nbytes = cache.live_bytes
                heap.free_group(cache)
                return nbytes
            return 0

        heap.add_pressure_handler(evict)
        # Fill the old generation with pinned data, then keep allocating.
        heap.allocate(cache, 10, heap.old_capacity - MB)
        other = heap.new_group("more", Lifetime.PINNED)
        heap.allocate(other, 10, 4 * MB)
        assert calls, "pressure handler should have been asked to evict"

    def test_oom_when_handlers_cannot_help(self):
        heap = make_heap(heap_mb=8)
        heap.add_pressure_handler(lambda needed: 0)
        group = heap.new_group("g", Lifetime.PINNED)
        with pytest.raises(OutOfMemoryError):
            heap.allocate(group, 1, heap.old_capacity + MB)


class TestGroupLifecycle:
    def test_free_twice_raises(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        heap.free_group(group)
        with pytest.raises(AllocationError):
            heap.free_group(group)

    def test_allocation_into_freed_group_raises(self):
        heap = make_heap()
        group = heap.new_group("g", Lifetime.PINNED)
        heap.free_group(group)
        with pytest.raises(AllocationError):
            heap.allocate(group, 1, 8)


class TestCollectorComparison:
    def _gc_heavy_run(self, algorithm):
        heap = make_heap(heap_mb=16, gc_algorithm=algorithm)
        cache = heap.new_group("cache", Lifetime.PINNED)
        heap.allocate(cache, 200_000, int(heap.old_capacity * 0.9))
        temp = heap.new_group("temp", Lifetime.TEMPORARY)
        for _ in range(50):
            heap.allocate(temp, 5000, heap.young_capacity // 2)
        return heap

    def test_cms_pauses_less_than_ps(self):
        ps = self._gc_heavy_run(GcAlgorithm.PARALLEL_SCAVENGE)
        cms = self._gc_heavy_run(GcAlgorithm.CMS)
        assert ps.stats.full_count >= 1
        assert cms.stats.full_pause_ms < ps.stats.full_pause_ms

    def test_concurrent_collectors_do_background_work(self):
        g1 = self._gc_heavy_run(GcAlgorithm.G1)
        assert g1.stats.concurrent_ms > 0
        ps = self._gc_heavy_run(GcAlgorithm.PARALLEL_SCAVENGE)
        assert ps.stats.concurrent_ms == 0


class TestGcEvents:
    def test_events_are_ordered_and_typed(self):
        heap = make_heap()
        heap.minor_gc()
        heap.full_gc()
        kinds = [e.kind for e in heap.stats.events]
        assert GcKind.MINOR in kinds and GcKind.FULL in kinds
        starts = [e.start_ms for e in heap.stats.events]
        assert starts == sorted(starts)
