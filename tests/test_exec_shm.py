"""Shared-memory Deca page segment lifecycle (``repro.exec.shm``).

The mp backend's data plane: decomposed containers packed once into
``multiprocessing.shared_memory`` segments, read in place from any
process, owned (refcounted, unlinked) by the driver-side registry —
the cross-process analogue of page-info reference counting (§4.3.3).
"""

import multiprocessing
import os

import pytest

from repro.analysis.udt import LONG
from repro.config import DecaConfig, ExecutionMode, FaultConfig, \
    ScriptedFault
from repro.core.plan import ContainerPlan, StorageStrategy
from repro.errors import PageError
from repro.exec.shm import (
    EMPTY_SEGMENT,
    SegmentRef,
    SharedPageSegment,
    ShmSegmentRegistry,
    attach_page_group,
    list_segments,
    pack_records_segment,
    read_segment_records,
    shm_available,
    sweep_segments,
    unlink_segment,
)
from repro.memory.layout import PrimitiveSlot, RecordSchema
from repro.spark import DecaContext

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")

PAIR = RecordSchema("pair", [("k", PrimitiveSlot(LONG)),
                             ("v", PrimitiveSlot(LONG))])

PAIRS = [(i, i * i) for i in range(200)]


def pair_plan(decode=None) -> ContainerPlan:
    return ContainerPlan(target="shuffle:0:pairs", udt="pair",
                         local_size_type=None, global_size_type=None,
                         decomposed=True, reason="test",
                         strategy=StorageStrategy.DECA_PAGES, schema=PAIR,
                         decode=decode)


def _segment_linked(name: str) -> bool:
    return name in list_segments(prefix=name)


@pytest.fixture
def seg_name(request):
    name = f"repro-mp-test-{os.getpid()}-{request.node.name[:24]}"
    yield name
    unlink_segment(name)


class TestPackAndRead:
    def test_roundtrip_in_place(self, seg_name):
        ref = pack_records_segment(seg_name, PAIR, PAIRS)
        assert ref.count == len(PAIRS)
        assert ref.nbytes == 16 * len(PAIRS)
        assert _segment_linked(seg_name)
        assert list(read_segment_records(ref, pair_plan())) == PAIRS

    def test_empty_creates_no_segment(self, seg_name):
        assert pack_records_segment(seg_name, PAIR, []) is EMPTY_SEGMENT
        assert not _segment_linked(seg_name)
        assert list(read_segment_records(EMPTY_SEGMENT, pair_plan())) == []

    def test_decode_hook_applies(self, seg_name):
        ref = pack_records_segment(seg_name, PAIR, PAIRS[:5])
        got = list(read_segment_records(
            ref, pair_plan(decode=lambda kv: kv[0] + kv[1])))
        assert got == [k + v for k, v in PAIRS[:5]]

    @pytest.mark.parametrize("decode", [None, lambda kv: kv],
                             ids=["raw", "decoded"])
    @pytest.mark.parametrize("how", ["all", "some"])
    def test_read_detaches_however_it_ends(self, seg_name, monkeypatch,
                                           how, decode):
        """The scan reads through a view of the mapping; it must be gone
        before the group's reclaim closes the segment."""
        detached = []

        class Strict(SharedPageSegment):
            def close(self):
                if not self.closed:
                    # BufferError here (swallowed by the real close) means
                    # a view of the mapping outlived the scan.
                    self._shm.close()
                    detached.append(self.name)
                super().close()

        ref = pack_records_segment(seg_name, PAIR, PAIRS)
        monkeypatch.setattr("repro.exec.shm.SharedPageSegment", Strict)
        records = read_segment_records(ref, pair_plan(decode))
        if how == "all":
            assert list(records) == PAIRS
        else:
            assert next(records) == PAIRS[0]
            records.close()
        assert detached == [seg_name]

    def test_overflowing_segment_raises(self, seg_name):
        segment = SharedPageSegment(seg_name, 16, create=True)
        try:
            segment.allocate(16)
            with pytest.raises(PageError):
                segment.allocate(1)
        finally:
            segment.close()


def _child_read(ref: SegmentRef, queue) -> None:
    queue.put(list(read_segment_records(ref, pair_plan())))


class TestCrossProcess:
    def test_second_process_reads_in_place(self, seg_name):
        """A forked reader attaches by SegmentRef and decodes the same
        physical pages — no pickle of the records ever happens."""
        ref = pack_records_segment(seg_name, PAIR, PAIRS)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_read, args=(ref, queue))
        proc.start()
        got = queue.get(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert got == PAIRS

    def test_read_survives_owner_release(self, seg_name):
        """POSIX semantics: unlinking (the registry dropping the last
        reference) only removes the name — an already-attached reader
        keeps a valid mapping until it detaches."""
        ref = pack_records_segment(seg_name, PAIR, PAIRS)
        registry = ShmSegmentRegistry()
        registry.register(ref)
        group = attach_page_group(ref)
        info = group.new_page_info()
        registry.release(seg_name)          # last owner: segment unlinked
        assert not _segment_linked(seg_name)
        assert list(group.records(PAIR)) == PAIRS
        info.close()                        # reclaim detaches the mapping


class TestRegistry:
    def test_refcount_drives_unlink(self, seg_name):
        unlinked = []
        registry = ShmSegmentRegistry(
            on_unlink=lambda name, nbytes: unlinked.append((name, nbytes)))
        ref = pack_records_segment(seg_name, PAIR, PAIRS)
        registry.register(ref)
        registry.acquire(seg_name)          # second logical owner
        registry.release(seg_name)
        assert _segment_linked(seg_name)    # one reference still held
        assert unlinked == []
        registry.release(seg_name)
        assert not _segment_linked(seg_name)
        assert unlinked == [(seg_name, ref.nbytes)]
        assert len(registry) == 0

    def test_double_register_rejected(self, seg_name):
        registry = ShmSegmentRegistry()
        ref = pack_records_segment(seg_name, PAIR, PAIRS[:2])
        registry.register(ref)
        with pytest.raises(PageError):
            registry.register(ref)
        registry.release_all()

    def test_release_all_unlinks_everything(self):
        registry = ShmSegmentRegistry()
        names = [f"repro-mp-test-{os.getpid()}-rall{i}" for i in range(3)]
        for name in names:
            registry.register(pack_records_segment(name, PAIR, PAIRS[:3]))
        assert registry.release_all() == 3
        for name in names:
            assert not _segment_linked(name)

    def test_sweep_by_prefix(self):
        """The driver's recovery path after a worker death: deterministic
        names mean orphans are swept without the dead process's help."""
        prefix = f"repro-mp-test-{os.getpid()}-sweep"
        for i in range(2):
            pack_records_segment(f"{prefix}-{i}", PAIR, PAIRS[:2])
        assert sorted(sweep_segments(prefix)) == [f"{prefix}-0",
                                                  f"{prefix}-1"]
        assert list_segments(prefix) == []


class TestManagerIntegration:
    def test_shared_group_packs_into_segment(self, seg_name):
        """A writer packs records into a buffer bump-allocated out of the
        shared mapping; a reader attaches the segment and scans it as a
        page group."""
        total = sum(PAIR.size_of(p) for p in PAIRS)
        segment = SharedPageSegment(seg_name, total, create=True)
        buf = segment.allocate(total)
        offset = 0
        for pair in PAIRS:
            offset = PAIR.pack_into(buf, offset, pair)
        buf.release()       # drop the write view before detaching
        segment.close()

        ref = SegmentRef(name=seg_name, nbytes=total, count=len(PAIRS))
        attached = attach_page_group(ref)
        info = attached.new_page_info()
        assert list(attached.records(PAIR)) == PAIRS
        info.close()


class TestWorkerDeathCleanup:
    def test_crashed_worker_leaves_no_segments(self):
        """A worker killed after creating its segments (crash between
        commit and report) must not leak: the driver sweeps the attempt
        prefix, retries, and the run still matches the fault-free one."""
        data = [(i % 20, 1) for i in range(1500)]

        def run(faults=None):
            kwargs = dict(mode=ExecutionMode.DECA, execution_backend="mp",
                          num_executors=2, tasks_per_executor=2)
            if faults is not None:
                kwargs["faults"] = faults
            ctx = DecaContext(DecaConfig(**kwargs))
            counts = ctx.parallelize(data, 4, name="wd.pairs") \
                        .reduce_by_key(lambda a, b: a + b, 4,
                                       name="wd.counts")
            result = sorted(counts.collect())
            metrics = ctx.finish()
            return result, metrics

        clean, _ = run()
        faulty, metrics = run(FaultConfig(scripted=(
            ScriptedFault("executor-crash", stage_id=0, partition=1,
                          after_ops=3),)))
        assert faulty == clean
        stats = metrics.backend
        assert stats["worker_deaths"] == 1
        assert metrics.recovery.executors_lost == 1
        assert metrics.recovery.task_retries >= 1
        # Nothing of either run is left in /dev/shm.
        assert stats["segments_live"] == 0
        assert [name for name in list_segments()
                if "-test-" not in name] == []


class TestPartialReadsOnTheRealBackend:
    def test_abandoned_cache_scans_leave_no_segment(self):
        """Workers that stop reading a shm-attached cache block after its
        first record still detach it: nothing is left in /dev/shm."""
        from repro.apps.logistic_regression import labeled_point_udt_info
        ctx = DecaContext(DecaConfig(
            mode=ExecutionMode.DECA, execution_backend="mp",
            num_executors=2, tasks_per_executor=2))
        data = [(float(i), tuple(float(d) for d in range(10)))
                for i in range(400)]
        rdd = ctx.parallelize(data, 4).map(
            lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
        assert rdd.count() == len(data)
        firsts = ctx.run_job(rdd, lambda records: next(records), "firsts")
        assert sorted(firsts) == [data[i] for i in range(0, 400, 100)]
        assert sorted(rdd.collect()) == data
        metrics = ctx.finish()
        assert metrics.backend["segments_created"] >= 4
        assert metrics.backend["segments_live"] == 0
        assert [name for name in list_segments()
                if "-test-" not in name] == []
