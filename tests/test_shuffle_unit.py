"""Unit tests for the shuffle subsystem internals."""

import pytest

from repro.config import CpuCosts, DecaConfig, IoCosts, MB, SerializerCosts
from repro.core.plan import ContainerPlan
from repro.errors import ShuffleError
from repro.spark import DecaContext
from repro.spark.measure import measure_generic
from repro.spark.shuffle import (
    MapOutputBlock,
    MapSideWriter,
    ShuffleBlockStore,
    ShuffleKind,
    read_reduce_partition,
)


def shuffle_plan(decomposed=False, **flags):
    return ContainerPlan(target="shuffle:0:unit", udt=None,
                         local_size_type=None, global_size_type=None,
                         decomposed=decomposed, reason="unit test",
                         measure=measure_generic, **flags)


def io_ticks(exe, device: str) -> int:
    """Ticks *exe* spent on ``<device>:*`` transfers (its trace spans)."""
    return sum(e.dur_ticks for e in exe.tracer.by_category(f"io.{device}")
               if e.pid == exe.trace_pid)


def executor(**overrides):
    defaults = dict(heap_bytes=32 * MB, num_executors=2,
                    tasks_per_executor=2)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults)).executors[0]


class TestBlockStore:
    def test_register_and_fetch(self):
        store = ShuffleBlockStore()
        block = MapOutputBlock(records=[(1, 2)], nbytes=10, objects=1,
                               executor_id=0, plan=shuffle_plan())
        store.register(7, 0, 3, block)
        store.set_map_parts(7, 1)
        assert store.fetch(7, 0, 3) is block
        assert store.fetch(7, 0, 4) is None
        assert store.map_parts(7) == 1

    def test_unknown_shuffle_raises(self):
        with pytest.raises(ShuffleError):
            ShuffleBlockStore().map_parts(99)

    def test_remove_shuffle(self):
        store = ShuffleBlockStore()
        store.set_map_parts(7, 1)
        store.register(7, 0, 0, MapOutputBlock([], 0, 0, 0, shuffle_plan()))
        store.remove_shuffle(7)
        assert store.fetch(7, 0, 0) is None
        with pytest.raises(ShuffleError):
            store.map_parts(7)


class TestMapSideWriter:
    def make_writer(self, kind=ShuffleKind.COMBINE, plan=None, exe=None,
                    num_reduce=2):
        exe = exe or executor()
        return exe, MapSideWriter(
            exe, shuffle_id=0, map_part=0, num_reduce=num_reduce,
            partitioner=lambda k: k, kind=kind,
            merge_value=(lambda a, b: a + b)
            if kind is ShuffleKind.COMBINE else None,
            plan=plan or shuffle_plan())

    def test_combine_requires_merge(self):
        exe = executor()
        with pytest.raises(ShuffleError):
            MapSideWriter(exe, 0, 0, 2, lambda k: k,
                          ShuffleKind.COMBINE, shuffle_plan())

    def test_eager_combining_merges_per_key(self):
        exe, writer = self.make_writer()
        writer.write_all([(1, 10), (1, 5), (2, 7), (1, 1)])
        store = ShuffleBlockStore()
        writer.flush(store)
        store.set_map_parts(0, 1)
        block_odd = store.fetch(0, 0, 1)
        assert dict(block_odd.records) == {1: 16}
        block_even = store.fetch(0, 0, 0)
        assert dict(block_even.records) == {2: 7}

    def test_none_value_is_an_entry_not_a_missing_key(self):
        """``distinct()`` shuffles ``(record, None)``: a duplicate must
        merge into the entry, not be inserted (and charged) again."""
        calls = []
        exe = executor()
        writer = MapSideWriter(
            exe, shuffle_id=0, map_part=0, num_reduce=2,
            partitioner=lambda k: k, kind=ShuffleKind.COMBINE,
            merge_value=lambda a, b: calls.append((a, b)),
            plan=shuffle_plan())
        writer.write_all([(7, None)] * 500 + [(8, None)] * 3)
        assert len(calls) == 501            # records - distinct keys
        # The buffer holds, and the arena was charged for, two entries.
        two_entries = 2 * writer.measure((7, None)).object_bytes
        assert writer._buffer_group.live_bytes == two_entries
        assert writer._charged == two_entries

    def test_distinct_combines_map_side(self):
        calls = []

        def keep_first(a, b):
            calls.append((a, b))
            return a

        ctx = DecaContext(DecaConfig(heap_bytes=32 * MB, num_executors=2,
                                     tasks_per_executor=2))
        out = ctx.parallelize(["k"] * 1000, 2).map(lambda v: (v, None)) \
            .reduce_by_key(keep_first, 2).collect()
        assert out == [("k", None)]
        # 998 map-side (records - map partitions), 1 on the reduce side.
        assert len(calls) == 999

    def test_sort_kind_sorts_output(self):
        exe, writer = self.make_writer(kind=ShuffleKind.SORT,
                                       num_reduce=1)
        writer.write_all([(3, "c"), (1, "a"), (2, "b")])
        store = ShuffleBlockStore()
        writer.flush(store)
        assert store.fetch(0, 0, 0).records == \
            [(1, "a"), (2, "b"), (3, "c")]

    def test_buffer_freed_on_flush(self):
        exe, writer = self.make_writer()
        writer.write_all([(k, 1) for k in range(100)])
        assert writer._buffer_group.live_bytes > 0
        writer.flush(ShuffleBlockStore())
        assert writer._buffer_group.freed

    def test_spill_on_tiny_budget(self):
        exe = executor(heap_bytes=2 * MB, shuffle_fraction=0.001,
                       storage_fraction=0.1)
        _, writer = self.make_writer(kind=ShuffleKind.GROUP, exe=exe)
        writer.write_all([(k, "x" * 50) for k in range(2000)])
        assert writer.spilled_bytes > 0

    def test_decomposed_plan_uses_page_objects(self):
        exe = executor()
        plan = shuffle_plan(decomposed=True)
        _, writer = self.make_writer(plan=plan, exe=exe)
        writer.write_all([(k, 1) for k in range(500)])
        # One page object per config.page_bytes of data, not per entry.
        assert writer._buffer_group.live_objects < 10

    def test_segment_reuse_skips_temp_alloc(self):
        exe_a = executor()
        plan = shuffle_plan(decomposed=True, value_segment_reuse=True)
        _, writer = self.make_writer(plan=plan, exe=exe_a)
        writer.write_all([(1, v) for v in range(1000)])
        reuse_temp = exe_a.heap.live_objects

        exe_b = executor()
        _, writer_b = self.make_writer(exe=exe_b)
        writer_b.write_all([(1, v) for v in range(1000)])
        alloc_temp = exe_b.heap.live_objects
        assert reuse_temp < alloc_temp


class TestReduceRead:
    def test_reader_concatenates_map_outputs(self):
        exe = executor()
        store = ShuffleBlockStore()
        store.set_map_parts(5, 2)
        store.register(5, 0, 0, MapOutputBlock(
            [(1, "a")], nbytes=16, objects=1, executor_id=0,
            plan=shuffle_plan()))
        store.register(5, 1, 0, MapOutputBlock(
            [(2, "b")], nbytes=16, objects=1,
            executor_id=1, plan=shuffle_plan()))
        records = list(read_reduce_partition(exe, store, 5, 0))
        assert sorted(records) == [(1, "a"), (2, "b")]

    def test_remote_block_costs_network(self):
        exe = executor()
        store = ShuffleBlockStore()
        store.set_map_parts(5, 1)
        store.register(5, 0, 0, MapOutputBlock(
            [(1, "a")], nbytes=1000, objects=1,
            executor_id=exe.executor_id + 1, plan=shuffle_plan()))
        list(read_reduce_partition(exe, store, 5, 0))
        assert io_ticks(exe, "net") > 0

    def test_local_block_skips_network(self):
        exe = executor()
        store = ShuffleBlockStore()
        store.set_map_parts(5, 1)
        store.register(5, 0, 0, MapOutputBlock(
            [(1, "a")], nbytes=1000, objects=1,
            executor_id=exe.executor_id, plan=shuffle_plan()))
        list(read_reduce_partition(exe, store, 5, 0))
        assert io_ticks(exe, "net") == 0

    def test_decomposed_blocks_skip_deserialization(self):
        exe = executor()
        store = ShuffleBlockStore()
        store.set_map_parts(5, 1)
        store.register(5, 0, 0, MapOutputBlock(
            [(i, i) for i in range(1000)], nbytes=8000, objects=1000,
            executor_id=exe.executor_id,
            plan=shuffle_plan(decomposed=True)))
        list(read_reduce_partition(exe, store, 5, 0))
        assert exe.serializer.deser_ticks == 0


class TestSpillMerge:
    def test_spilled_writers_charge_merge_reads(self):
        """Appendix C: spilled runs are merged at read time."""
        exe_writer = executor(heap_bytes=2 * MB, shuffle_fraction=0.001,
                              storage_fraction=0.1)
        writer = MapSideWriter(
            exe_writer, shuffle_id=0, map_part=0, num_reduce=1,
            partitioner=lambda k: 0, kind=ShuffleKind.GROUP,
            plan=shuffle_plan())
        writer.write_all([(k, "x" * 50) for k in range(2000)])
        assert writer.spilled_bytes > 0
        store = ShuffleBlockStore()
        store.set_map_parts(0, 1)
        writer.flush(store)
        block = store.fetch(0, 0, 0)
        assert block.merge_penalty_bytes > 0

        reader = executor()
        disk_before = io_ticks(reader, "disk")
        list(read_reduce_partition(reader, store, 0, 0))
        plain_store = ShuffleBlockStore()
        plain_store.set_map_parts(0, 1)
        plain_store.register(0, 0, 0, MapOutputBlock(
            records=block.records, nbytes=block.nbytes,
            objects=block.objects, executor_id=block.executor_id,
            plan=shuffle_plan()))
        reader_b = executor()
        list(read_reduce_partition(reader_b, plain_store, 0, 0))
        spilled_cost = io_ticks(reader, "disk") - disk_before
        assert spilled_cost > io_ticks(reader_b, "disk")

    def test_spill_sort_charges_cover_only_the_buffer_epoch(self):
        """Each spill sorts the records accumulated since the previous
        spill — not every record written so far.  With the sort as the
        only nonzero cost, the clock reads out exactly how many records
        were sorted; re-charging cumulative counts (the pre-fix bug)
        would push it past ``records_written``."""
        sort_ms = 1.0
        exe = executor(
            heap_bytes=32 * MB, shuffle_fraction=0.001,
            storage_fraction=0.1, tasks_per_executor=1,
            cpu=CpuCosts(record_op_ms=0.0, arithmetic_per_dim_ms=0.0,
                         hash_probe_ms=0.0, sort_per_record_ms=sort_ms,
                         object_alloc_ms=0.0, boxing_ms=0.0,
                         page_access_ms=0.0),
            io=IoCosts(disk_write_per_byte_ms=0.0,
                       disk_read_per_byte_ms=0.0, disk_seek_ms=0.0,
                       network_per_byte_ms=0.0, network_rtt_ms=0.0,
                       tier_write_per_byte_ms=0.0,
                       tier_read_per_byte_ms=0.0),
            serializer=SerializerCosts(kryo_ser_per_object_ms=0.0,
                                       kryo_deser_per_object_ms=0.0,
                                       deca_write_per_object_ms=0.0,
                                       deca_read_per_object_ms=0.0))
        writer = MapSideWriter(
            exe, shuffle_id=0, map_part=0, num_reduce=1,
            partitioner=lambda k: 0, kind=ShuffleKind.GROUP,
            plan=shuffle_plan())
        writer.write_all([(k, "x" * 50) for k in range(2000)])
        assert writer.spill_count >= 2
        spills = [e for e in exe.tracer.events
                  if e.name == "shuffle:spill"]
        sorted_records = sum(e.args["records"] for e in spills)
        # The spill epochs partition the input: spilled plus still
        # buffered equals everything written, with no overlap.
        assert sorted_records + writer._buffer_records \
            == writer.records_written
        assert exe.clock.now_ms == pytest.approx(
            sort_ms * sorted_records)
        assert exe.clock.now_ms <= sort_ms * writer.records_written

    def test_merge_penalty_sums_exactly_to_spilled_bytes(self):
        """The per-partition merge penalties must add up to the bytes
        actually spilled; the pre-fix floor division dropped the
        remainder."""
        exe = executor(heap_bytes=2 * MB, shuffle_fraction=0.001,
                       storage_fraction=0.1)
        num_reduce = 3
        writer = MapSideWriter(
            exe, shuffle_id=0, map_part=0, num_reduce=num_reduce,
            partitioner=lambda k: k, kind=ShuffleKind.GROUP,
            plan=shuffle_plan())
        writer.write_all([(k, "x" * (50 + k % 7)) for k in range(2000)])
        assert writer.spilled_bytes > 0
        assert writer.spilled_bytes % num_reduce != 0, \
            "pick sizes leaving a remainder, or the test proves nothing"
        store = ShuffleBlockStore()
        store.set_map_parts(0, 1)
        writer.flush(store)
        penalties = [store.fetch(0, 0, part).merge_penalty_bytes
                     for part in range(num_reduce)]
        assert sum(penalties) == writer.spilled_bytes
        assert max(penalties) - min(penalties) <= 1

    def test_unspilled_blocks_have_no_penalty(self):
        exe = executor()
        writer = MapSideWriter(
            exe, shuffle_id=1, map_part=0, num_reduce=1,
            partitioner=lambda k: 0, kind=ShuffleKind.COMBINE,
            merge_value=lambda a, b: a + b, plan=shuffle_plan())
        writer.write_all([(1, 1), (2, 2)])
        store = ShuffleBlockStore()
        writer.flush(store)
        assert store.fetch(1, 0, 0).merge_penalty_bytes == 0
