"""Shuffles: hash-based eager combining, sort buffers, spill (§4.2–§4.3).

The write path mirrors Spark 1.6:

* ``reduceByKey``-style operators use a **hash-based buffer with eager
  combining**: one combined entry per key; every merge kills the old Value
  object and creates a new one — the temporary churn of Fig. 8(a).  Deca's
  plan may mark the Value an SFST, in which case the merge *reuses the
  page segment in place* and the churn disappears (§4.3.2).
* ``groupByKey``/``join``/``sortByKey`` write through per-partition append
  buffers (sort-based shuffle, no map-side combine).

The read path fetches map outputs (network cost for remote blocks),
deserializes them (free for decomposed bytes), and feeds the reduce-side
aggregation.  Buffers exceeding the shuffle memory budget spill to disk.

The data plane is real — records actually move — while every cost lands on
the owning executor's simulated clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from ..core.plan import ContainerPlan
from ..errors import AllocationError, FetchFailedError, ShuffleError
from ..jvm.objects import Lifetime
from .measure import KRYO_TAG_BYTES
# Re-exported: benchmarks/perf's wrapper self-test reads this module's
# binding of the generic measurer.
from .measure import measure_generic as measure_generic

if TYPE_CHECKING:
    from ..exec.shm import BlockPayload
    from ..obs.sanitizer import Sanitizer


class ShuffleKind(enum.Enum):
    """Reduce-side semantics of a shuffle."""

    COMBINE = "combine"        # reduceByKey: merge combiners
    GROUP = "group"            # groupByKey: build value lists
    SORT = "sort"              # sortByKey: merge-sort by key
    COGROUP = "cogroup"        # join: group both sides by key


@dataclass
class MapOutputBlock:
    """One (map partition, reduce partition) shuffle block.

    Under the sim backend ``records`` holds the block's record objects.
    Under the mp backend ``records`` is ``None`` and ``payload`` is the
    block as it crossed the pipe (:class:`~repro.exec.shm.BlockPayload`,
    in the form the shuffle's plan fixes): shared pages, which a reducer
    attaches and decodes in place, or bytes, which it decodes — only the
    worker that reads a reduce partition decodes its blocks.
    """

    records: list | None
    nbytes: int
    objects: int
    executor_id: int
    plan: ContainerPlan
    # Bytes this block's writer spilled mid-task: the reader must merge
    # the sorted spill files with the final output (Appendix C: Deca
    # merges through a single-page buffer; Spark re-reads the runs).
    merge_penalty_bytes: int = 0
    # The shipped form (mp backend): see repro.exec.shm.
    payload: BlockPayload | None = None

    def read(self, sanitizer: Sanitizer | None = None
             ) -> Iterator[tuple[Any, Any]]:
        """The block's records, decoded from its payload unless they
        are at hand (sim); *sanitizer* checks shared pages stay
        unwritten (DECA408)."""
        if self.records is not None:
            return iter(self.records)
        # Imported here: a sim run never loads the shared-memory stack.
        from ..exec.shm import read_block
        assert self.payload is not None
        return read_block(self.payload, self.plan, sanitizer)


class ShuffleBlockStore:
    """Cluster-wide registry of map outputs (the "shuffle service")."""

    def __init__(self) -> None:
        self._blocks: dict[tuple[int, int, int], MapOutputBlock] = {}
        self._num_map_parts: dict[int, int] = {}

    def register(self, shuffle_id: int, map_part: int, reduce_part: int,
                 block: MapOutputBlock) -> None:
        self._blocks[(shuffle_id, map_part, reduce_part)] = block

    def set_map_parts(self, shuffle_id: int, count: int) -> None:
        self._num_map_parts[shuffle_id] = count

    def map_parts(self, shuffle_id: int) -> int:
        try:
            return self._num_map_parts[shuffle_id]
        except KeyError:
            raise ShuffleError(
                f"unknown shuffle {shuffle_id}") from None

    def fetch(self, shuffle_id: int, map_part: int,
              reduce_part: int) -> MapOutputBlock | None:
        return self._blocks.get((shuffle_id, map_part, reduce_part))

    def remove_shuffle(self, shuffle_id: int) -> None:
        for key in [k for k in self._blocks if k[0] == shuffle_id]:
            del self._blocks[key]
        self._num_map_parts.pop(shuffle_id, None)

    def remove_executor_outputs(self, executor_id: int
                                ) -> list[tuple[int, int]]:
        """Drop every block a lost executor wrote.

        Returns the sorted, de-duplicated ``(shuffle_id, map_part)`` pairs
        that are now missing — the lineage the scheduler must re-execute.
        Sorted order matters twice: recomputing lower shuffle ids first
        regenerates parent stages before the children that read them, and
        a deterministic order keeps seeded fault runs reproducible.
        """
        lost: set[tuple[int, int]] = set()
        for key in [k for k in self._blocks
                    if self._blocks[k].executor_id == executor_id]:
            lost.add((key[0], key[1]))
            del self._blocks[key]
        return sorted(lost)


# "No combined entry yet" — not ``None``, which is a legal value
# (``distinct()`` shuffles ``(record, None)`` pairs).
_NO_ENTRY = object()


class MapSideWriter:
    """Writes one map task's output into per-reduce-partition buffers."""

    def __init__(self, executor, shuffle_id: int, map_part: int,
                 num_reduce: int,
                 partitioner: Callable[[Any], int],
                 kind: ShuffleKind,
                 plan: ContainerPlan,
                 merge_value: Callable[[Any, Any], Any] | None = None,
                 ) -> None:
        if kind is ShuffleKind.COMBINE and merge_value is None:
            raise ShuffleError("combine shuffles need a merge function")
        self.executor = executor
        self.shuffle_id = shuffle_id
        self.map_part = map_part
        self.num_reduce = num_reduce
        self.partitioner = partitioner
        self.kind = kind
        self.merge_value = merge_value
        self.plan = plan
        # Every shuffle plan carries its records' measurer.
        self.measure = plan.measure
        # Data plane: combined entries or append lists per reduce part.
        self._combine: list[dict[Any, Any]] = [dict()
                                               for _ in range(num_reduce)]
        self._append: list[list] = [[] for _ in range(num_reduce)]
        # Flush's per-partition (objects, serialized bytes), summed as
        # records enter the buffer.  Exact for every append kind and for
        # a combine whose SFST value is merged in place, whose entries
        # keep the footprint they were inserted with; an object-form
        # combine's merges replace values, so its flush measures.
        self._totals_at_write = (
            kind is not ShuffleKind.COMBINE
            or (plan.decomposed and plan.value_segment_reuse))
        self._written_objects = [0] * num_reduce
        self._written_bytes = [0] * num_reduce
        self._buffer_group = executor.heap.new_group(
            f"shuffle-buf:{shuffle_id}:{map_part}", Lifetime.PINNED)
        self._buffer_bytes = 0
        self.spilled_bytes = 0
        self.records_written = 0
        # Records written into the current buffer epoch (reset by each
        # spill): the sort at spill time only touches these, not the
        # records already sorted out to disk by earlier spills.
        self._buffer_records = 0
        self.spill_count = 0
        self._page_bytes = executor.config.page_bytes
        # The executor arena decides when this writer (a MemoryConsumer)
        # spills.  ``_charged`` is what it holds there; spill/flush/abort
        # zero it, which makes their releases idempotent.
        self._arena = executor.arena
        self._charged = 0

    # -- write path -----------------------------------------------------------
    def write_all(self, records: Iterable[tuple[Any, Any]]) -> None:
        """Write one map task's records: one loop per shuffle kind.

        What cannot change while the task runs — the partitioner, the
        measurer, the executor's charge and serializer entry points, the
        cost constants — is bound once here.  The buffer state (group,
        bytes, arena charge, epoch record count) is read through ``self``
        on every record, because a spill — from this loop or, under the
        unified arena, cooperatively from a heap allocation — replaces it
        mid-task.

        The arena is asked only when a record grew ``_buffer_bytes`` past
        what it already holds.  A zero delta cannot answer "spill": the
        static pool has not moved since this writer's last check (only a
        live map-side writer moves it, and one runs per executor at a
        time), the unified arena returns ``(0, False)`` for
        ``nbytes <= 0``, and an mp worker's arena is null.  So an eager
        merge — in place for an SFST value (§4.3.2), a temporary for an
        object-form one — never calls it.
        """
        executor = self.executor
        prices = executor.prices
        partitioner, num_reduce = self.partitioner, self.num_reduce
        charge_compute = executor.charge_compute
        deca_write = executor.serializer.deca_write
        measure = self.measure
        account = self._account_buffer
        account_decomposed = self._account_decomposed
        decomposed = self.plan.decomposed
        object_alloc = prices.object_alloc
        # Per-partition flush totals, kept where flush can trust them.
        written_objects, written_bytes = (self._written_objects,
                                          self._written_bytes)
        written = 0
        try:
            if self.kind is ShuffleKind.COMBINE:
                buckets = self._combine
                merge_value = self.merge_value
                reuse = self._totals_at_write
                alloc_temp = executor.alloc_temp
                hash_probe = prices.hash_probe
                page_access = prices.page_access
                boxing = prices.boxing
                temp = object_alloc + boxing
                for key, value in records:
                    part = partitioner(key) % num_reduce
                    bucket = buckets[part]
                    charge_compute(hash_probe)
                    old = bucket.get(key, _NO_ENTRY)
                    if old is not _NO_ENTRY:
                        merged = merge_value(old, value)
                        bucket[key] = merged
                        if reuse:
                            # SFST value: overwrite the old segment in
                            # place — no allocation, no dead object
                            # (§4.3.2).
                            charge_compute(page_access)
                        else:
                            # A new Value object replaces the old one:
                            # allocation plus a short-lived temporary.
                            objects, object_bytes, _ = measure((key, merged))
                            charge_compute(temp)
                            alloc_temp(max(1, objects - 1),
                                       object_bytes // 2)
                        written += 1
                        self._buffer_records += 1
                        continue
                    bucket[key] = value
                    objects, object_bytes, data_bytes = measure((key, value))
                    if decomposed:
                        # Decompose the fresh entry straight into buffer
                        # bytes.
                        deca_write(1, data_bytes)
                        account_decomposed(data_bytes)
                        if reuse:
                            # Merges never resize an SFST entry.
                            written_objects[part] += objects
                            written_bytes[part] += data_bytes + KRYO_TAG_BYTES
                    else:
                        charge_compute(object_alloc * objects + boxing)
                        account(objects, object_bytes)
                    written += 1
                    self._buffer_records += 1
                    if self._buffer_bytes > self._charged:
                        self._maybe_spill()
            else:
                appends = self._append
                for key, value in records:
                    part = partitioner(key) % num_reduce
                    record = (key, value)
                    appends[part].append(record)
                    objects, object_bytes, data_bytes = measure(record)
                    if decomposed:
                        deca_write(1, data_bytes)
                        account_decomposed(data_bytes)
                    else:
                        charge_compute(object_alloc * objects)
                        account(objects, object_bytes)
                    written_objects[part] += objects
                    written_bytes[part] += data_bytes + KRYO_TAG_BYTES
                    written += 1
                    self._buffer_records += 1
                    if self._buffer_bytes > self._charged:
                        self._maybe_spill()
        finally:
            self.records_written += written

    def _account_decomposed(self, nbytes: int) -> None:
        """Account decomposed buffer bytes at page granularity.

        The records live inside a few byte-array pages; the heap only sees
        a new object when the bytes cross into a fresh page (§4.3.1).
        """
        pages_before = self._buffer_bytes // self._page_bytes
        pages_after = (self._buffer_bytes + nbytes) // self._page_bytes
        new_pages = pages_after - pages_before
        if self._buffer_bytes == 0 and nbytes > 0:
            new_pages += 1  # the first page
        self._account_buffer(new_pages, nbytes)

    def _account_buffer(self, objects: int, nbytes: int) -> None:
        group = self._buffer_group
        try:
            self.executor.heap.allocate(group, objects, nbytes)
        except AllocationError:
            if group is self._buffer_group:
                raise
            # Heap pressure spilled this very writer mid-allocation (the
            # unified arena's release path): the record opens the fresh
            # buffer epoch, decomposed bytes on a fresh page.
            if self.plan.decomposed:
                objects = nbytes // self._page_bytes + 1
            self.executor.heap.allocate(self._buffer_group, objects, nbytes)
        self._buffer_bytes += nbytes

    # -- MemoryConsumer protocol ----------------------------------------------
    @property
    def consumer_name(self) -> str:
        return f"shuffle:{self.shuffle_id}:{self.map_part}"

    def spill(self) -> int:
        """Sort and spill the buffered records, releasing arena bytes.

        Invoked by :meth:`_maybe_spill` when the arena says so and — in
        unified mode — cooperatively by the arena when a sibling
        consumer is starved.  Returns the arena bytes given back.
        """
        if self._buffer_bytes <= 0 and self._charged <= 0:
            return 0
        # Sort and spill the buffered bytes, then release the heap space
        # (the data plane keeps the records; only costs are charged).
        # The sort covers this epoch's records only — records spilled by
        # earlier epochs already left the buffer and are merged at read
        # time, not re-sorted here.
        executor = self.executor
        spill_start = executor.clock.ticks
        executor.charge_compute(
            executor.prices.sort_per_record * self._buffer_records)
        executor.cold_tier.spill(self._buffer_bytes)
        self.spilled_bytes += self._buffer_bytes
        self.spill_count += 1
        executor.heap.free_group(self._buffer_group)
        self._buffer_group = executor.heap.new_group(
            f"shuffle-buf:{self.shuffle_id}:{self.map_part}:spill",
            Lifetime.PINNED)
        executor.tracer.complete(
            "shuffle:spill", "shuffle", ts_ticks=spill_start,
            dur_ticks=executor.clock.ticks - spill_start,
            pid=executor.trace_pid, shuffle_id=self.shuffle_id,
            map_part=self.map_part, spilled_bytes=self._buffer_bytes,
            records=self._buffer_records, spill_count=self.spill_count,
            heap_used_bytes=(executor.heap.young_used_bytes
                             + executor.heap.old_used_bytes))
        self._buffer_bytes = 0
        self._buffer_records = 0
        return self._release_arena()

    def _release_arena(self) -> int:
        """Give every charged arena byte back (idempotent)."""
        charged, self._charged = self._charged, 0
        if charged <= 0:
            return 0
        return self._arena.buffer_release(self, charged)

    def _maybe_spill(self) -> None:
        """Charge the buffer's growth; spill if the arena says so.

        Called only when ``_buffer_bytes`` outgrew ``_charged`` (see
        :meth:`write_all` for why a zero delta need not ask)."""
        charged, spill = self._arena.buffer_charge(
            self, self._buffer_bytes - self._charged)
        self._charged += charged
        if spill:
            self.spill()

    # -- flush -----------------------------------------------------------------
    def flush(self, store: ShuffleBlockStore) -> None:
        """Sort, serialize and register the per-partition outputs."""
        sort_per_record = self.executor.prices.sort_per_record
        # Spread the spill-merge penalty across the reduce partitions
        # without losing the division remainder: the first
        # ``spilled_bytes % num_reduce`` partitions carry one extra byte,
        # so the penalties sum exactly to the bytes actually spilled.
        penalty_base, penalty_rem = divmod(self.spilled_bytes,
                                           self.num_reduce)
        for part in range(self.num_reduce):
            if self.kind is ShuffleKind.COMBINE:
                records = list(self._combine[part].items())
            else:
                records = self._append[part]
                if self.kind is ShuffleKind.SORT:
                    self.executor.charge_compute(
                        sort_per_record * len(records))
                    records = sorted(records, key=lambda kv: kv[0])
            if self._totals_at_write:
                objects = self._written_objects[part]
                nbytes = self._written_bytes[part]
            else:
                objects = 0
                nbytes = 0
                for record in records:
                    footprint = self.measure(record)
                    objects += footprint.objects
                    nbytes += footprint.serialized_bytes
            if self.plan.decomposed:
                # The pages already are the wire format.
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
        # The buffer's lifetime ends with the task (§4.2).
        if not self._buffer_group.freed:
            self.executor.heap.free_group(self._buffer_group)
        self._release_arena()

    def abort(self) -> None:
        """Tear down after a failed attempt: the buffer dies unregistered.

        The data plane is discarded with the writer object; only the heap
        group needs explicit release so the failed attempt's buffer shows
        up as garbage instead of leaking as live objects.
        """
        if not self._buffer_group.freed:
            self.executor.heap.free_group(self._buffer_group)
        self._release_arena()


class ReduceMergeConsumer:
    """The reduce-side merge as an execution :class:`MemoryConsumer`.

    Every fetched block's bytes are admitted against an execution grant
    (the static split grants them unaccounted); when the arena cannot
    extend it the merge spills its buffered runs to disk (an extra
    sequential write, merged back by charge-free streaming) and releases
    the grant.  Spilled bytes are tallied on *task*, the attempt the
    merge runs in.
    """

    def __init__(self, executor, shuffle_id: int, reduce_part: int,
                 task=None) -> None:
        self.executor = executor
        self.arena = executor.arena
        self.shuffle_id = shuffle_id
        self.reduce_part = reduce_part
        self.task = task
        self._charged = 0
        self._data_bytes = 0
        self.spill_count = 0

    @property
    def consumer_name(self) -> str:
        return f"reduce-merge:{self.shuffle_id}:{self.reduce_part}"

    def admit(self, nbytes: int) -> None:
        """Account one fetched block into the merge buffer."""
        granted = self.arena.execution_acquire(nbytes, consumer=self)
        if granted < nbytes and self._data_bytes > 0:
            self.spill()
            granted += self.arena.execution_acquire(nbytes - granted,
                                                    consumer=self)
        self._charged += granted
        self._data_bytes += nbytes

    def spill(self) -> int:
        """Write the buffered merge runs out; return arena bytes freed."""
        if self._data_bytes <= 0 and self._charged <= 0:
            return 0
        executor = self.executor
        spill_start = executor.clock.ticks
        executor.cold_tier.spill(self._data_bytes)
        if self.task is not None:
            self.task.spilled_bytes += self._data_bytes
        self.spill_count += 1
        executor.tracer.complete(
            "shuffle:merge-spill", "shuffle", ts_ticks=spill_start,
            dur_ticks=executor.clock.ticks - spill_start,
            pid=executor.trace_pid, shuffle_id=self.shuffle_id,
            reduce_part=self.reduce_part,
            spilled_bytes=self._data_bytes,
            spill_count=self.spill_count)
        self._data_bytes = 0
        charged, self._charged = self._charged, 0
        if charged <= 0:
            return 0
        return self.arena.execution_release(charged, consumer=self)

    def close(self) -> None:
        """Release the grant when the merge's records are consumed."""
        self._data_bytes = 0
        charged, self._charged = self._charged, 0
        if charged > 0:
            self.arena.execution_release(charged, consumer=self)


def read_reduce_partition(executor, store: ShuffleBlockStore,
                          shuffle_id: int, reduce_part: int, task=None,
                          ) -> Iterator[tuple[Any, Any]]:
    """Fetch and yield one reduce partition's records.

    Remote blocks pay network cost; all blocks pay disk read (map outputs
    are files); object-form blocks pay per-record deserialization while
    decomposed blocks are read in place.  The merge buffer holds an
    execution grant via :class:`ReduceMergeConsumer` and spills when the
    arena denies it.
    """
    merge = ReduceMergeConsumer(executor, shuffle_id, reduce_part, task)
    num_maps = store.map_parts(shuffle_id)
    injector = executor.fault_injector
    tracer = executor.tracer
    try:
        yield from _fetch_blocks(executor, store, shuffle_id, reduce_part,
                                 num_maps, injector, tracer, merge)
    finally:
        merge.close()


def _fetch_blocks(executor, store: ShuffleBlockStore, shuffle_id: int,
                  reduce_part: int, num_maps: int, injector, tracer,
                  merge: ReduceMergeConsumer,
                  ) -> Iterator[tuple[Any, Any]]:
    for map_part in range(num_maps):
        fetch_start = executor.clock.ticks
        block = store.fetch(shuffle_id, map_part, reduce_part)
        if block is None:
            # The map output is gone (e.g. its executor was lost after the
            # stage ran): surface a FetchFailed so the scheduler re-runs
            # the lineage that produced it, exactly like Spark.
            tracer.instant(
                "shuffle:fetch-failed", "shuffle",
                ts_ticks=executor.clock.ticks, pid=executor.trace_pid,
                shuffle_id=shuffle_id, map_part=map_part,
                reduce_part=reduce_part, reason="missing map output")
            raise FetchFailedError(shuffle_id, map_part, reduce_part,
                                   reason="missing map output")
        if injector is not None and injector.enabled \
                and injector.corrupt_fetch(shuffle_id, map_part,
                                           reduce_part):
            # The fetched bytes fail checksum verification; the reader
            # still paid for the transfer it has performed so far.
            executor.charge_disk_read(block.nbytes)
            tracer.instant(
                "shuffle:fetch-failed", "shuffle",
                ts_ticks=executor.clock.ticks, pid=executor.trace_pid,
                shuffle_id=shuffle_id, map_part=map_part,
                reduce_part=reduce_part, reason="corrupt block")
            raise FetchFailedError(shuffle_id, map_part, reduce_part,
                                   reason="corrupt block")
        executor.charge_disk_read(block.nbytes)
        if block.merge_penalty_bytes:
            # Merge the sorted spill runs through a one-page buffer
            # (Appendix C): an extra sequential read of the spilled data.
            executor.charge_disk_read(block.merge_penalty_bytes)
        remote = block.executor_id != executor.executor_id
        if remote:
            executor.charge_network(block.nbytes)
        records = block.records
        if block.plan.decomposed:
            executor.serializer.deca_read(len(records), block.nbytes)
        else:
            executor.serializer.kryo_deserialize(block.objects,
                                                 block.nbytes)
        merge.admit(block.nbytes)
        # The fetch wait: everything between asking for the block and
        # having its records decoded and ready to aggregate.
        tracer.complete(
            "shuffle:fetch", "shuffle", ts_ticks=fetch_start,
            dur_ticks=executor.clock.ticks - fetch_start,
            pid=executor.trace_pid, shuffle_id=shuffle_id,
            map_part=map_part, reduce_part=reduce_part,
            nbytes=block.nbytes, remote=remote,
            merge_penalty_bytes=block.merge_penalty_bytes)
        yield from records
