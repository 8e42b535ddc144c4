"""The runtime sanitizer's checkpoints inside the engine.

Each test seeds one bug into a real engine function with ``monkeypatch``
and asserts one violation under exactly the slug its rule maps to — not a
digest mismatch or a decode error somewhere downstream.
"""

import os

import pytest

from repro.analysis.udt import LONG
from repro.config import DecaConfig, ExecutionMode
from repro.core.plan import ContainerPlan, StorageStrategy
from repro.errors import SanitizerError
from repro.exec import shm
from repro.exec.shm import BlockPayload, pack_records_segment, \
    read_block, shm_available, unlink_segment
from repro.memory.layout import PrimitiveSlot, RecordSchema
from repro.obs.sanitizer import Sanitizer
from repro.spark import DecaContext
from repro.spark.executor import Executor
from repro.spark.shuffle import MapOutputBlock

PAIR = RecordSchema("pair", [("k", PrimitiveSlot(LONG)),
                             ("v", PrimitiveSlot(LONG))])
PAIRS = [(i, i * i) for i in range(50)]
PAIR_PLAN = ContainerPlan(target="shuffle:0:pairs", udt="pair",
                          local_size_type=None, global_size_type=None,
                          decomposed=True, reason="test",
                          strategy=StorageStrategy.DECA_PAGES, schema=PAIR)


def test_leaked_task_slot_is_reported_at_finish(monkeypatch):
    """DECA410's slug: a task slot the arena granted and nothing
    released is still charged when the run ends."""
    begin_task = Executor.begin_task

    def begin_task_twice(self, task):
        begin_task(self, task)
        self.arena.task_started()       # a second slot, never released

    monkeypatch.setattr(Executor, "begin_task", begin_task_twice)
    ctx = DecaContext(DecaConfig(mode=ExecutionMode.DECA, num_executors=1,
                                 memory_mode="unified", sanitize=True))
    assert ctx.parallelize(list(range(10)), 1).map(
        lambda v: v + 1).collect() == list(range(1, 11))
    with pytest.raises(SanitizerError) as err:
        ctx.finish()
    assert {slug for slug, count in err.value.summary.items() if count} \
        == {"double-grant"}
    assert [v["rule"] for v in ctx.sanitizer.violations] == ["double-grant"]
    assert "never released" in ctx.sanitizer.violations[0]["detail"]


@pytest.mark.skipif(not shm_available(),
                    reason="platform has no shared memory")
@pytest.mark.parametrize("reader", ["shuffle", "cache"])
def test_write_through_an_attached_segment_is_caught(monkeypatch, reader):
    """DECA408: the block reader attaches read-only under the run's
    sanitizer — for a shuffle block and a cache-table payload alike — so
    a write through the mounted pages is seen at the detach."""
    name = f"repro-mp-test-{os.getpid()}-ro-{reader}"
    ref = pack_records_segment(name, PAIR, PAIRS)
    attach = shm.attach_page_group

    def attach_and_write(*args, **kwargs):
        group = attach(*args, **kwargs)
        page = group.pages[0].data
        page[8] ^= 1                    # record 0's value: 0 -> 1
        return group

    monkeypatch.setattr(shm, "attach_page_group", attach_and_write)
    payload = BlockPayload(ref=ref)
    if reader == "shuffle":
        block = MapOutputBlock(records=None, nbytes=ref.nbytes, objects=0,
                               executor_id=0, plan=PAIR_PLAN, payload=payload)
        read = block.read
    else:
        # A worker's cache read: the table's payload, the dataset's plan.
        def read(sanitizer):
            return read_block(payload, PAIR_PLAN, sanitizer)
    sanitizer = Sanitizer()
    try:
        records = list(read(sanitizer))
    finally:
        unlink_segment(name)
    assert records[0] == (0, 1) and records[1:] == PAIRS[1:]
    assert sanitizer.counters["readonly-page-write"] == 1
    assert [v["rule"] for v in sanitizer.violations] == \
        ["readonly-page-write"]


@pytest.mark.skipif(not shm_available(),
                    reason="platform has no shared memory")
def test_mp_worker_write_through_a_shuffle_segment_is_caught(monkeypatch):
    """The same check in a real mp job: the worker writes through the
    first segment it attaches, and the violation it records rides home
    to the driver's ``finish()``."""
    from repro.apps.wordcount import run_wordcount

    attach = shm.attach_page_group
    writes = []

    def attach_and_write_once(*args, **kwargs):
        group = attach(*args, **kwargs)
        if not writes:
            page = group.pages[0].data
            page[len(page) - 1] ^= 1    # inside the last record's count
            writes.append(args[0].name)
        return group

    monkeypatch.setattr(shm, "attach_page_group", attach_and_write_once)
    config = DecaConfig(mode=ExecutionMode.DECA, execution_backend="mp",
                        num_executors=1, tasks_per_executor=2,
                        sanitize=True)
    words = [f"w{i % 7}" for i in range(200)]
    with pytest.raises(SanitizerError) as err:
        run_wordcount(words, config, num_partitions=2)
    assert {slug for slug, count in err.value.summary.items() if count} \
        == {"readonly-page-write"}
    assert err.value.summary["readonly-page-write"] == 1
