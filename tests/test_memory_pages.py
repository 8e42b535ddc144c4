"""Tests for repro.memory.page and repro.memory.manager."""

import struct

import pytest

from repro.config import DecaConfig, MB
from repro.errors import (MemoryLayoutError, PageError, PageOverflowError,
                          PageReclaimedError)
from repro.jvm import SimHeap
from repro.memory import DecaMemoryManager, PageGroup, PagePointer, \
    StaticMemoryArena, UnifiedMemoryManager
from repro.memory.layout import (FixedArraySchema, PrimitiveSlot,
                                 RecordSchema, VarArraySchema)
from repro.analysis import BYTE, DOUBLE, INT
from repro.obs.sanitizer import Sanitizer
from repro.simtime import SimClock


def point_schema():
    return RecordSchema("Point", [("x", PrimitiveSlot(DOUBLE)),
                                  ("tag", PrimitiveSlot(INT))])


def append_blob(group, nbytes):
    """Append one *nbytes*-byte record."""
    return group.append_record(
        FixedArraySchema(PrimitiveSlot(BYTE), nbytes), (7,) * nbytes)


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
        pointer = append_blob(group, 100)
        assert pointer.length == 100
        assert group.pages[pointer.page_index].capacity == 100

    def test_read_resolves_pointer(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        pointer = group.append_record(schema, (2.5, 7))
        buf, off = group.read(pointer)
        assert schema.unpack_from(buf, off)[0] == (2.5, 7)

    def test_append_after_reclaim_raises(self):
        group = PageGroup("g", page_bytes=64)
        group.reclaim()
        with pytest.raises(PageReclaimedError):
            append_blob(group, 1)

    def test_read_past_used_raises(self):
        group = PageGroup("g", page_bytes=64)
        append_blob(group, 3)
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


class TestFailedAppend:
    """A value the schema rejects leaves no record behind: ``page.used``
    moves only once the pack succeeded."""

    def test_append_record_leaves_no_phantom(self):
        group = PageGroup("g", page_bytes=64)
        schema = point_schema()
        group.append_record(schema, (2.0, 2))
        with pytest.raises(struct.error):
            group.append_record(schema, (1.0, "x"))
        assert group.used_bytes == 12
        assert list(group.records(schema)) == [(2.0, 2)]

    def test_append_records_keeps_the_records_before_the_bad_one(self):
        group = PageGroup("g", page_bytes=64)
        sanitizer = Sanitizer()
        group.sanitizer = sanitizer
        schema = point_schema()
        group.append_record(schema, (2.0, 2))
        with pytest.raises(struct.error):
            group.append_records(
                schema, [(3.0, 3), (4.0, 4), (1.0, "x"), (5.0, 5)])
        assert group.used_bytes == 36
        assert list(group.records(schema)) == [(2.0, 2), (3.0, 3), (4.0, 4)]
        assert sanitizer.record_sizes == {"Point": {12: 3}}
        assert sanitizer.group_bytes == {"g": ("Point", 36)}

    def test_rejected_arity_raises_the_walkers_error(self):
        group = PageGroup("g", page_bytes=64)
        with pytest.raises(MemoryLayoutError, match="expects 2 values"):
            group.append_records(point_schema(), [(1.0, 1), (1.0,)])
        assert group.used_bytes == 12

    def test_length_prefixed_batch_leaves_no_phantom(self):
        group = PageGroup("g", page_bytes=64)
        schema = RecordSchema("Adj", [("vid", PrimitiveSlot(INT)),
                                      ("xs", VarArraySchema(
                                          PrimitiveSlot(INT)))])
        with pytest.raises(struct.error):
            group.append_records(schema, [(1, (2, 3)), (4, ("y",))])
        assert list(group.records(schema)) == [(1, (2, 3))]
        assert group.used_bytes == schema.size_of((1, (2, 3)))

    def test_length_prefixed_run_stores_each_record_once(self, monkeypatch):
        """Sizing reads a record's constructor arguments, so the pack
        walk is the one ``_stored`` per appended record; the pages and
        the sanitizer's book match a per-record loop."""
        schema = RecordSchema(
            "Adj", [("vid", PrimitiveSlot(INT)), ("n", PrimitiveSlot(INT)),
                    ("xs", VarArraySchema(PrimitiveSlot(INT)))],
            shape=((0, 2), ((1, "len", 1),)))
        values = [(i, tuple(range(i % 7))) for i in range(40)]
        looped = PageGroup("g", page_bytes=64)
        looped.sanitizer = Sanitizer()
        for value in values:
            looped.append_record(schema, value)
        calls = []
        stored = RecordSchema._stored
        monkeypatch.setattr(RecordSchema, "_stored", lambda self, value: (
            calls.append(value), stored(self, value))[1])
        group = PageGroup("g", page_bytes=64)
        group.sanitizer = Sanitizer()
        assert group.append_records(schema, values) == len(values)
        assert calls == values
        assert [bytes(p.data[:p.used]) for p in group.pages] == [
            bytes(p.data[:p.used]) for p in looped.pages]
        assert list(group.records(schema)) == values
        assert group.sanitizer.record_sizes == looped.sanitizer.record_sizes
        assert group.sanitizer.group_bytes == looped.sanitizer.group_bytes


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


class TestHeapIntegration:
    def test_pages_are_single_heap_objects(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        heap = SimHeap(cfg, SimClock())
        group = PageGroup("g", page_bytes=MB, heap=heap)
        for _ in range(5):
            group.append_run(bytes(MB))  # five full pages
        # Five page objects on the heap, regardless of record count.
        assert heap.live_objects == 5

    def test_reclaim_frees_heap_space(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        heap = SimHeap(cfg, SimClock())
        group = PageGroup("g", page_bytes=MB, heap=heap)
        group.append_run(bytes(MB))
        group.reclaim()
        heap.full_gc()
        assert heap.live_objects == 0
        assert heap.old_used_bytes == 0


class TestMemoryManager:
    def make_manager(self):
        cfg = DecaConfig(heap_bytes=64 * MB, page_bytes=MB)
        return DecaMemoryManager(cfg, SimHeap(cfg, SimClock()),
                                 StaticMemoryArena(cfg))

    def test_duplicate_names_rejected(self):
        manager = self.make_manager()
        manager.new_page_group("block-0")
        with pytest.raises(PageError):
            manager.new_page_group("block-0")

    def test_stats_track_groups(self):
        manager = self.make_manager()
        a = manager.new_page_group("a")
        append_blob(a, 100)
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
