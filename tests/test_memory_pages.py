"""Tests for repro.memory.page and repro.memory.manager."""

import pytest

from repro.config import DecaConfig, MB
from repro.errors import PageError, PageOverflowError, PageReclaimedError
from repro.jvm import SimHeap
from repro.memory import DecaMemoryManager, PageGroup, PagePointer, \
    UnifiedMemoryManager
from repro.memory.layout import PrimitiveSlot, RecordSchema
from repro.analysis import DOUBLE, INT
from repro.simtime import SimClock


def point_schema():
    return RecordSchema("Point", [("x", PrimitiveSlot(DOUBLE)),
                                  ("tag", PrimitiveSlot(INT))])


class TestPageGroupAppend:
    def test_records_fill_pages_sequentially(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()  # 12 bytes per record
        pointers = [group.append_record(schema, (float(i), i))
                    for i in range(10)]
        # 5 records of 12 B per 64 B page.
        assert group.page_count == 2
        assert pointers[0].page_index == 0
        assert pointers[5].page_index == 1
        assert group.used_bytes == 120

    def test_end_offset_tracks_last_page(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        group.append_record(schema, (1.0, 1))
        assert group.end_offset == 12

    def test_oversized_record_gets_dedicated_page(self):
        group = PageGroup("g", page_bytes=16)
        pointer = group.append_bytes(b"x" * 100)
        assert pointer.length == 100
        assert group.pages[pointer.page_index].capacity == 100

    def test_read_resolves_pointer(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        pointer = group.append_record(schema, (2.5, 7))
        buf, off = group.read(pointer)
        assert schema.unpack_from(buf, off)[0] == (2.5, 7)

    def test_read_past_used_raises(self):
        group = PageGroup("g", page_bytes=64)
        group.append_bytes(b"abc")
        with pytest.raises(PageOverflowError):
            group.read(PagePointer(0, 0, 999))

    def test_scan_visits_every_record_in_order(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        values = [(float(i), i) for i in range(20)]
        for value in values:
            group.append_record(schema, value)
        assert list(group.records(schema)) == values

    def test_partial_trailing_record_raises(self):
        """A page whose used bytes are not whole records is refused —
        the unused tail is never decoded as a record."""
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        group.append_record(schema, (1.0, 1))
        group.pages[0].used += 5
        with pytest.raises(PageError, match="whole number of 12-byte"):
            list(group.records(schema))

    def test_zero_page_size_rejected(self):
        with pytest.raises(PageError):
            PageGroup("g", page_bytes=0)


def _consume(records, how, expected):
    """Drive a record iterator fully, partially then close, or not at all."""
    if how == "all":
        assert list(records) == expected
    elif how == "some":
        assert [next(records), next(records)] == expected[:2]
        records.close()


@pytest.mark.parametrize("how", ["all", "some", "none"])
class TestRecordsViewLifetime:
    """``records`` scans each page through a memoryview; the view must be
    gone once the scan is over, however it ends."""

    def filled(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        values = [(float(i), i) for i in range(22)]   # last page: 2 of 5
        for value in values:
            group.append_record(schema, value)
        return group, schema, values

    def assert_unpinned(self, group):
        # A bytearray with a live export refuses to be resized.
        for page in group.pages:
            page.data.append(0)
            page.data.pop()

    def test_pages_are_unpinned_and_trim_works(self, how):
        group, schema, values = self.filled()
        _consume(group.records(schema), how, values)
        self.assert_unpinned(group)
        assert group.trim() > 0
        assert list(group.records(schema)) == values

    def test_drain_and_reclaim_work(self, how):
        group, schema, values = self.filled()
        _consume(group.records(schema), how, values)
        assert b"".join(group.drain()) == b"".join(
            schema.pack(value) for value in values)
        assert group.reclaimed
        other, _, _ = self.filled()
        _consume(other.records(schema), how, values)
        other.reclaim()
        assert other.pages == []


class TestRefCounting:
    def test_group_reclaims_at_zero(self):
        group = PageGroup("g", page_bytes=64)
        info_a = group.new_page_info()
        info_b = info_a.share()
        info_a.close()
        assert not group.reclaimed
        info_b.close()
        assert group.reclaimed

    def test_double_close_raises(self):
        group = PageGroup("g", page_bytes=64)
        info = group.new_page_info()
        info.close()
        with pytest.raises(PageReclaimedError):
            info.close()

    def test_access_after_reclaim_raises(self):
        group = PageGroup("g", page_bytes=64)
        group.new_page_info().close()
        with pytest.raises(PageReclaimedError):
            group.append_bytes(b"x")

    def test_dependency_closes_with_owner(self):
        """Fig. 7(a): a secondary's page-info holds the primary's alive."""
        primary = PageGroup("primary", page_bytes=64)
        secondary = PageGroup("secondary", page_bytes=64)
        p_info = primary.new_page_info()
        s_info = secondary.new_page_info()
        s_info.add_dependency(p_info)
        assert not primary.reclaimed
        s_info.close()
        assert primary.reclaimed
        assert secondary.reclaimed


class TestHeapIntegration:
    def test_pages_are_single_heap_objects(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        heap = SimHeap(cfg, SimClock())
        group = PageGroup("g", page_bytes=MB, heap=heap)
        for _ in range(5):
            group.reserve(MB)  # five full pages
        # Five page objects on the heap, regardless of record count.
        assert heap.live_objects == 5

    def test_reclaim_frees_heap_space(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        heap = SimHeap(cfg, SimClock())
        group = PageGroup("g", page_bytes=MB, heap=heap)
        group.reserve(MB)
        group.reclaim()
        heap.full_gc()
        assert heap.live_objects == 0
        assert heap.old_used_bytes == 0


class TestMemoryManager:
    def make_manager(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        return DecaMemoryManager(cfg, SimHeap(cfg, SimClock()))

    def test_duplicate_names_rejected(self):
        manager = self.make_manager()
        manager.new_page_group("block-0")
        with pytest.raises(PageError):
            manager.new_page_group("block-0")

    def test_stats_track_groups(self):
        manager = self.make_manager()
        a = manager.new_page_group("a")
        a.append_bytes(b"x" * 100)
        assert manager.group_count == 1
        assert manager.used_bytes == 100
        assert manager.allocated_bytes > 0

    def test_reclaimed_groups_are_forgotten(self):
        manager = self.make_manager()
        group = manager.new_page_group("a")
        group.reclaim()
        assert manager.group_count == 0
        manager.new_page_group("a")  # name is reusable

    def test_shuffle_groups_are_not_evictable(self):
        """Only cache-block groups become storage entries of the arena
        (the LRU that decides swap-out); shuffle groups spill instead."""
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB,
                         memory_mode="unified")
        arena = UnifiedMemoryManager(cfg)
        manager = DecaMemoryManager(cfg, SimHeap(cfg, SimClock()), arena)
        manager.new_page_group("shuffle", evictable=False)
        manager.new_page_group("block", evictable=True)
        assert not arena.storage_contains("shuffle")
        assert arena.storage_contains("block")


class TestColumnRuns:
    def test_append_run_dedicated_page(self):
        group = PageGroup("runs", page_bytes=64)
        data = bytes(range(200))  # larger than the group's page size
        ptr = group.append_run(data)
        assert ptr.offset == 0
        assert ptr.length == len(data)
        buffer, offset = group.read(ptr)
        assert bytes(buffer[offset:offset + ptr.length]) == data

    def test_append_run_is_contiguous_per_run(self):
        group = PageGroup("runs", page_bytes=64)
        first = group.append_run(b"a" * 100)
        second = group.append_run(b"b" * 50)
        assert first.page_index != second.page_index
        assert group.used_bytes == 150

    def test_empty_run_still_allocates(self):
        group = PageGroup("runs", page_bytes=64)
        ptr = group.append_run(b"")
        assert ptr.length == 0

    def test_swap_chunks_cover_used_bytes(self):
        group = PageGroup("runs", page_bytes=64)
        group.append_run(b"x" * 100)
        group.append_run(b"y" * 30)
        chunks = group.swap_chunks()
        assert sum(len(c) for c in chunks) == group.used_bytes
        assert b"".join(bytes(c) for c in chunks) == b"x" * 100 + b"y" * 30
        for chunk in chunks:
            chunk.release()

    def test_swap_chunks_rejects_reclaimed_group(self):
        group = PageGroup("runs", page_bytes=64)
        group.append_run(b"x" * 10)
        group.reclaim()
        with pytest.raises(PageReclaimedError):
            group.swap_chunks()
