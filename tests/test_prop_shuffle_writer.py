"""Property test: ``MapSideWriter.write_all``'s one-loop-per-kind writer
is the per-record writer it replaced.

The oracle below is that per-record writer, kept verbatim: a method
call per record for the combine or append step, a page computation per
decomposed record, an arena call after every record (merges included)
and a flush that measures every buffered record again.  The loop binds
its collaborators once, asks the arena only when the buffer grew and
lets flush read totals summed at write time — none of which may show.

Both writers run the same records on two executors built from the same
config, and everything the outside can observe must come out equal: the
registered blocks (records, bytes, objects, merge penalty), the
simulated clock to the last bit, the task's metrics, the heap (usage and
every GC event), the arena's pool, the spills, the trace and the record
count.  The cases draw every shuffle kind (the cogroup side tag
included), decomposed and object plans with and without
``value_segment_reuse``, the static and the unified arena with budgets
small enough to spill, and an armed ``task-kill`` fault, which must
strike both writers at the same operation.
"""

from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from repro.config import KB, DecaConfig
from repro.core.plan import ContainerPlan
from repro.errors import DecaError
from repro.spark import DecaContext
from repro.spark.faults import TASK_KILL, TaskFaultPlan
from repro.spark.measure import measure_generic
from repro.spark.metrics import TaskMetrics
from repro.spark.scheduler import TaskContext
from repro.spark.shuffle import (_NO_ENTRY, MapOutputBlock, MapSideWriter,
                                 ShuffleBlockStore, ShuffleKind)


class PerRecordWriter(MapSideWriter):
    """The writer before the one-pass loop: one call per record."""

    def write_all(self, records):
        prices = self.executor.prices
        if self.kind is ShuffleKind.COMBINE:
            for key, value in records:
                self._write_combine(key, value, prices)
        else:
            for key, value in records:
                self._write_append(key, value, prices)

    def _write_combine(self, key, value, prices):
        part = self.partitioner(key) % self.num_reduce
        bucket = self._combine[part]
        self.executor.charge_compute(prices.hash_probe)
        old = bucket.get(key, _NO_ENTRY)
        if old is _NO_ENTRY:
            bucket[key] = value
            footprint = self.measure((key, value))
            if self.plan.decomposed:
                self.executor.serializer.deca_write(1, footprint.data_bytes)
                self._account_decomposed(footprint.data_bytes)
            else:
                self.executor.charge_compute(
                    prices.object_alloc * footprint.objects
                    + prices.boxing)
                self._account_buffer(footprint.objects,
                                     footprint.object_bytes)
        else:
            merged = self.merge_value(old, value)
            bucket[key] = merged
            if self.plan.decomposed and self.plan.value_segment_reuse:
                self.executor.charge_compute(prices.page_access)
            else:
                footprint = self.measure((key, merged))
                self.executor.charge_compute(
                    prices.object_alloc + prices.boxing)
                self.executor.alloc_temp(max(1, footprint.objects - 1),
                                         footprint.object_bytes // 2)
        self.records_written += 1
        self._buffer_records += 1
        self._maybe_spill()

    def _write_append(self, key, value, prices):
        part = self.partitioner(key) % self.num_reduce
        self._append[part].append((key, value))
        footprint = self.measure((key, value))
        if self.plan.decomposed:
            self.executor.serializer.deca_write(1, footprint.data_bytes)
            self._account_decomposed(footprint.data_bytes)
        else:
            self.executor.charge_compute(
                prices.object_alloc * footprint.objects)
            self._account_buffer(footprint.objects, footprint.object_bytes)
        self.records_written += 1
        self._buffer_records += 1
        self._maybe_spill()

    def _account_decomposed(self, nbytes):
        pages_before = self._buffer_bytes // self._page_bytes
        pages_after = (self._buffer_bytes + nbytes) // self._page_bytes
        new_pages = pages_after - pages_before
        if self._buffer_bytes == 0 and nbytes > 0:
            new_pages += 1
        self._account_buffer(new_pages, nbytes)

    def _maybe_spill(self):
        charged, spill = self._arena.buffer_charge(
            self, self._buffer_bytes - self._charged)
        self._charged += charged
        if spill:
            self.spill()

    def flush(self, store):
        prices = self.executor.prices
        penalty_base, penalty_rem = divmod(self.spilled_bytes,
                                           self.num_reduce)
        for part in range(self.num_reduce):
            if self.kind is ShuffleKind.COMBINE:
                records = list(self._combine[part].items())
            else:
                records = self._append[part]
                if self.kind is ShuffleKind.SORT:
                    self.executor.charge_compute(
                        prices.sort_per_record * len(records))
                    records = sorted(records, key=lambda kv: kv[0])
            objects = 0
            nbytes = 0
            for record in records:
                footprint = self.measure(record)
                objects += footprint.objects
                nbytes += footprint.serialized_bytes
            if self.plan.decomposed:
                self.executor.charge_disk_write(nbytes)
            else:
                self.executor.serializer.kryo_serialize(objects, nbytes)
                self.executor.charge_disk_write(nbytes)
            penalty = penalty_base + (1 if part < penalty_rem else 0)
            store.register(
                self.shuffle_id, self.map_part, part,
                MapOutputBlock(records=records, nbytes=nbytes,
                               objects=objects,
                               executor_id=self.executor.executor_id,
                               plan=self.plan,
                               merge_penalty_bytes=penalty))
        if not self._buffer_group.freed:
            self.executor.heap.free_group(self._buffer_group)
        self._release_arena()


# -- the drawn cases -----------------------------------------------------------

def _add_pairs(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _keep_first(a, _b):
    return a


#: value kind -> (strategy, merge, footprint kept by every merge?)
VALUES = {
    "long": (st.integers(-10**6, 10**6), lambda a, b: a + b, True),
    "double": (st.floats(-1e6, 1e6), lambda a, b: a + b, True),
    "pair": (st.tuples(st.integers(-99, 99), st.floats(-1e3, 1e3)),
             _add_pairs, True),
    "none": (st.none(), _keep_first, True),
    "string": (st.text(max_size=6), lambda a, b: (a + b)[:12], False),
    "list": (st.lists(st.integers(0, 9), max_size=4),
             lambda a, b: a + b, False),
}


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(list(ShuffleKind)))
    decomposed = draw(st.booleans())
    reuse = draw(st.booleans())
    value_kinds = sorted(VALUES)
    if kind is ShuffleKind.COMBINE and decomposed and reuse:
        # An SFST value: merging keeps its footprint (the plan's promise).
        value_kinds = [k for k in value_kinds if VALUES[k][2]]
    value_kind = draw(st.sampled_from(value_kinds))
    values, merge, _ = VALUES[value_kind]
    # Few keys or many; repeated and shuffled, so a short draw still
    # fills a buffer and merges between the inserts that spill it.
    keys = st.integers(-3, draw(st.sampled_from([3, 40])))
    records = draw(st.permutations(
        draw(st.lists(st.tuples(keys, values), max_size=40))
        * draw(st.sampled_from([1, 3, 8]))))
    tag = None
    if kind is ShuffleKind.COGROUP:
        tag = draw(st.sampled_from([0, 1]))
        records = [(key, (tag, value)) for key, value in records]
    config = DecaConfig(
        heap_bytes=draw(st.sampled_from([2 * KB, 3 * KB, 8 * KB, 32 * KB,
                                         4096 * KB])),
        page_bytes=draw(st.sampled_from([64, 256, 2 * KB])),
        shuffle_fraction=draw(st.sampled_from([0.01, 0.05, 0.4])),
        memory_mode=draw(st.sampled_from(["static", "unified"])),
        num_executors=1, tasks_per_executor=draw(st.sampled_from([1, 2])))
    plan = ContainerPlan(
        target="shuffle:0:prop", udt=None, local_size_type=None,
        global_size_type=None, decomposed=decomposed, reason="property",
        measure=measure_generic, value_segment_reuse=reuse, tag=tag)
    after_ops = draw(st.none() | st.integers(0, 60))
    return dict(kind=kind, plan=plan, records=records, config=config,
                merge=merge if kind is ShuffleKind.COMBINE else None,
                num_reduce=draw(st.integers(1, 4)), after_ops=after_ops)


def run(writer_type, case):
    """One map task with *writer_type*; everything observable after it."""
    exe = DecaContext(case["config"]).executors[0]
    task = TaskContext(executor=exe, metrics=TaskMetrics(
        task_id=0, stage_id=0, attempt=0))
    exe.begin_task(task)
    if case["after_ops"] is not None:
        exe.arm_fault(TaskFaultPlan(TASK_KILL, case["after_ops"]))
    store = ShuffleBlockStore()
    error = None
    writer = None
    try:
        writer = writer_type(
            exe, 0, 0, case["num_reduce"], partitioner=lambda key: key * 7,
            kind=case["kind"], plan=case["plan"], merge_value=case["merge"])
        writer.write_all(iter(case["records"]))
        writer.flush(store)
        exe.end_task(task)
    except DecaError as exc:
        # The scheduler's teardown of a failed attempt.
        if writer is not None:
            writer.abort()
        exe.abort_task(task, "killed")
        error = (type(exc).__name__, str(exc))
    blocks = []
    for part in range(case["num_reduce"]):
        block = store.fetch(0, 0, part)
        blocks.append(None if block is None else (
            block.records, block.nbytes, block.objects,
            block.merge_penalty_bytes, block.executor_id))
    heap, arena = exe.heap, exe.arena
    return dict(
        error=error, blocks=blocks, clock=exe.clock.ticks,
        metrics=astuple(task.metrics),
        heap=(heap.young_used_bytes, heap.old_used_bytes,
              heap.live_objects, heap.live_bytes,
              [astuple(event) for event in heap.stats.events]),
        arena=(getattr(arena, "shuffle_used", None), arena.snapshot()),
        spills=None if writer is None else (
            writer.spill_count, writer.spilled_bytes),
        records_written=None if writer is None else writer.records_written,
        serializer=(exe.serializer.ser_ticks,
                    exe.spilled_shuffle_bytes),
        trace=[(e.name, e.category, e.phase, e.ts_ticks, e.dur_ticks, e.pid,
                sorted(e.args.items())) for e in exe.tracer.events])


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_one_pass_writer_equals_the_per_record_writer(case):
    assert run(MapSideWriter, case) == run(PerRecordWriter, case)


def test_a_fault_strikes_both_writers_at_the_same_record():
    records = [(key % 5, 1) for key in range(40)]
    config = DecaConfig(heap_bytes=4096 * KB, page_bytes=256,
                        num_executors=1, tasks_per_executor=1)
    plan = ContainerPlan(
        target="shuffle:0:prop", udt=None, local_size_type=None,
        global_size_type=None, decomposed=True, reason="fault",
        measure=measure_generic, value_segment_reuse=True)
    case = dict(kind=ShuffleKind.COMBINE, plan=plan, records=records,
                config=config, merge=lambda a, b: a + b, num_reduce=2,
                after_ops=17)
    new, old = run(MapSideWriter, case), run(PerRecordWriter, case)
    assert new == old
    assert new["error"][0] == "TaskKilledError"
    # Five inserts pay one compute charge each (the hash probe), every
    # in-place merge two (probe and page access): 17 charges complete
    # eleven records and the twelfth record's probe is the one that dies.
    assert new["records_written"] == 11
