"""The block cache (Spark's ``CacheManager``/``BlockManager``, Appendix C).

Cached RDD partitions become *blocks*.  A block's storage strategy depends
on the execution mode / Deca plan:

* ``OBJECTS`` — a plain record list; every record's object graph lives on
  the (simulated) heap as pinned objects.  Spark's default.
* ``SERIALIZED`` — one packed byte blob per block (Kryo-like); two heap
  objects per block, but every read pays per-record deserialization.
  Spark's ``MEMORY_ONLY_SER`` ("SparkSer").
* ``DECA_PAGES`` — a reference-counted page group of decomposed records;
  a handful of heap objects, readable in place.

The executor's memory arena swaps blocks to its cold tier, least recently
used first (the paper's modified LRU evicts whole page groups in Deca
mode).  Swapped blocks are transparently re-read with cold-tier +
(mode-dependent) deserialization costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..core.plan import ContainerPlan, StorageStrategy
from ..errors import CacheError
from ..jvm.objects import AllocationGroup, Lifetime
from ..memory.page import PageGroup
from .measure import RecordFootprint

BlockKey = tuple[int, int]  # (rdd_id, partition_index)


@dataclass
class CachedBlock:
    """One cached partition on one executor."""

    key: BlockKey
    plan: ContainerPlan             # the dataset's strategy and codec
    records: list | None            # OBJECTS strategy
    blob: bytes | None              # SERIALIZED strategy
    page_group: PageGroup | None    # DECA_PAGES strategy
    record_count: int
    memory_bytes: int               # heap footprint while in memory
    disk_bytes: int                 # bytes written if swapped
    footprint: RecordFootprint      # summed record footprints
    alloc_group: AllocationGroup | None = None
    on_disk: bool = False
    # What the last swap-out released; swap-in readmits exactly this so
    # the two directions stay byte-symmetric.
    _swap_released_bytes: int = 0


class CacheStore:
    """Per-executor block store with swap-to-disk.

    Each resident block is an arena storage entry evicted through
    :meth:`swap_out`, the way a real BlockManager drops blocks.
    """

    def __init__(self, executor) -> None:
        self.executor = executor
        self.arena = executor.arena
        self.blocks: dict[BlockKey, CachedBlock] = {}
        # Counts touches; names the page groups of swapped-in blocks.
        self._tick = 0
        self.swapped_bytes_total = 0
        # Keys whose swap is in flight: the swap's copies can raise heap
        # pressure re-entrantly, which must not drain the block again.
        self._inflight: set[BlockKey] = set()

    # -- queries --------------------------------------------------------------
    def contains(self, key: BlockKey) -> bool:
        return key in self.blocks

    def get(self, key: BlockKey) -> CachedBlock:
        try:
            block = self.blocks[key]
        except KeyError:
            raise CacheError(f"no cached block {key}") from None
        self._touch(key)
        return block

    @property
    def memory_bytes(self) -> int:
        """Bytes of the resident (not swapped-out) blocks."""
        return sum(b.memory_bytes for b in self.blocks.values()
                   if not b.on_disk)

    def _touch(self, key: BlockKey) -> None:
        self._tick += 1
        block = self.blocks.get(key)
        if block is not None:
            self.arena.storage_touch(self._entry_name(block))

    def _entry_name(self, block: CachedBlock) -> str:
        """The block's storage-entry name in the executor arena.

        Deca blocks are tracked under their page group's name (the
        manager registers it); object/serialized blocks use the same
        ``cache:<key>`` convention.
        """
        if block.page_group is not None:
            return block.page_group.name
        return f"cache:{block.key}"

    # -- insertion -----------------------------------------------------------------
    def put(self, block: CachedBlock) -> None:
        """Insert *block* as an arena storage entry (evicting colder
        entries), or straight to disk when the arena rejects it."""
        key = block.key
        if key in self.blocks:
            raise CacheError(f"block {key} cached twice")
        # A page group registered (pinned) while it was built: adopting
        # seals it and makes it evictable.
        admit = (self.arena.storage_adopt if block.page_group is not None
                 else self.arena.storage_acquire)
        fits = admit(self._entry_name(block), block.memory_bytes,
                     lambda: self.swap_out(key), block=key)
        self.blocks[key] = block
        self._touch(key)
        if not fits and not block.on_disk:
            # The arena traced a ``memory:reject``: store straight to
            # disk instead of displacing better-sized residents.
            self.swap_out(key)

    # -- swapping (Appendix C) ----------------------------------------------------
    def _cold_name(self, block: CachedBlock) -> str:
        """The block's name in the executor's cold tier."""
        return f"cache:{block.key}"

    def swap_out(self, key: BlockKey) -> int:
        """Move a block to the cold tier and release its heap space."""
        block = self.blocks[key]
        if block.on_disk or key in self._inflight:
            # A block halfway through its own swap must not be drained
            # again by a re-entrant eviction (heap pressure raised by
            # the swap's transient copies picks victims through the
            # same LRU).
            return 0
        self._inflight.add(key)
        sanitizer = self.executor.sanitizer
        if sanitizer is not None:
            sanitizer.swap_begin(str(key))
        try:
            return self._swap_out(key, block)
        finally:
            self._inflight.discard(key)
            if sanitizer is not None:
                sanitizer.swap_end(str(key))

    def _swap_out(self, key: BlockKey, block: CachedBlock) -> int:
        executor = self.executor
        cold = executor.cold_tier
        name = self._cold_name(block)
        released = block.memory_bytes
        # Remember what this eviction released: swap-in readmits exactly
        # these bytes, whatever the footprint model would have guessed.
        block._swap_released_bytes = released
        if block.page_group is not None:
            # Deca: raw page bytes, never serialized (Appendix C).
            moved = cold.demote_group(name, block.page_group,
                                      block.disk_bytes)
        elif block.blob is not None:
            # A SparkSer blob already is wire format.
            moved = cold.demote(name, [block.blob], block.disk_bytes)
        else:
            if block.plan.strategy is StorageStrategy.OBJECTS:
                # Spark serializes object blocks before writing them out.
                executor.serializer.kryo_serialize(
                    block.footprint.objects, block.disk_bytes)
            # Object blocks and schema-less SparkSer blocks have no byte
            # image to move: the tier parks their record list.
            moved = cold.park(name, block.records, block.disk_bytes)
        self._release_payload(block)
        if block.alloc_group is not None and not block.alloc_group.freed:
            executor.heap.free_group(block.alloc_group)
            block.alloc_group = None
        # Deca entries are discarded by the manager when the group
        # reclaims; discard is idempotent, so cover both shapes.
        self.arena.storage_discard(self._entry_name(block))
        block.on_disk = True
        block.memory_bytes = 0
        self.swapped_bytes_total += block.disk_bytes
        swap_args = dict(
            rdd_id=key[0], partition=key[1],
            strategy=block.plan.strategy.value, released_bytes=released,
            disk_bytes=block.disk_bytes,
            heap_used_bytes=(executor.heap.young_used_bytes
                             + executor.heap.old_used_bytes))
        swap_args.update(cold.swap_out_args(moved))
        executor.tracer.instant(
            "cache:swap-out", "cache", ts_ticks=executor.clock.ticks,
            pid=executor.trace_pid, **swap_args)
        return released

    def swap_in(self, key: BlockKey) -> CachedBlock:
        """Read a swapped block back (charging tier/disk + deser costs)."""
        block = self.blocks[key]
        if not block.on_disk or key in self._inflight:
            return block
        self._inflight.add(key)
        try:
            fits = self._swap_in(key, block)
        finally:
            self._inflight.discard(key)
        if not fits:
            # Rejected like an oversized put: straight back to disk.
            self.swap_out(key)
        return block

    def _swap_in(self, key: BlockKey, block: CachedBlock) -> bool:
        executor = self.executor
        cold = executor.cold_tier
        name = self._cold_name(block)
        strategy = block.plan.strategy
        if strategy is StorageStrategy.DECA_PAGES:
            group = executor.memory_manager.new_page_group(
                f"cache:{block.key}:{self._tick}", evictable=True)
            cold.promote_group(name, group, block.disk_bytes)
            block.page_group = group
            block.memory_bytes = group.allocated_bytes
        else:
            payload = cold.promote(name, block.disk_bytes)
            objects, estimate = 2, block.footprint.serialized_bytes
            if strategy is StorageStrategy.OBJECTS:
                executor.serializer.kryo_deserialize(
                    block.footprint.objects, block.disk_bytes)
                objects = block.footprint.objects
                estimate = block.footprint.object_bytes
            if block.plan.schema is None:
                block.records = payload
                # Swap symmetry: readmit what swap-out actually released,
                # not the footprint's estimate.
                block.memory_bytes = block._swap_released_bytes or estimate
            else:
                block.blob = payload[0]
                block.memory_bytes = len(block.blob)
            group = executor.heap.new_group(
                f"cache:{block.key}", Lifetime.PINNED)
            executor.heap.allocate(group, objects, block.memory_bytes)
            block.alloc_group = group
        block.on_disk = False
        self._touch(key)
        # Re-register: the arena evicts colder entries, never this block
        # (it becomes the newest entry once registered; no thrash).
        fits = self.arena.storage_adopt(
            self._entry_name(block), block.memory_bytes,
            lambda: self.swap_out(key), block=key)
        executor.tracer.instant(
            "cache:swap-in", "cache", ts_ticks=executor.clock.ticks,
            pid=executor.trace_pid, rdd_id=key[0], partition=key[1],
            strategy=block.plan.strategy.value,
            restored_bytes=block.memory_bytes,
            disk_bytes=block.disk_bytes,
            heap_used_bytes=(executor.heap.young_used_bytes
                             + executor.heap.old_used_bytes))
        return fits

    # -- removal ---------------------------------------------------------------------
    def remove_rdd(self, rdd_id: int) -> int:
        """Drop every block of *rdd_id* (the ``unpersist`` path).

        Releasing the references is all it takes: object blocks become
        garbage for the next collection; page groups are reclaimed at once.
        """
        removed = 0
        for key in [k for k in self.blocks if k[0] == rdd_id]:
            self._drop_block(key)
            removed += 1
        return removed

    def invalidate_all(self) -> int:
        """Drop every block — the executor process that held them died.

        Unlike :meth:`remove_rdd` this is not a lifetime event the
        application chose: the partitions are simply gone, and the next
        ``iterator()`` call on their RDDs recomputes them from lineage.
        """
        removed = 0
        for key in list(self.blocks):
            self._drop_block(key)
            removed += 1
        return removed

    def _drop_block(self, key: BlockKey) -> None:
        block = self.blocks.pop(key)
        if block.alloc_group is not None and not block.alloc_group.freed:
            self.executor.heap.free_group(block.alloc_group)
        self.arena.storage_discard(self._entry_name(block))
        if block.page_group is not None \
                and not block.page_group.reclaimed:
            block.page_group.reclaim()
        # A dropped-while-swapped block must not keep its cold payload
        # reachable either.
        self._release_payload(block)
        self.executor.cold_tier.drop(self._cold_name(block))

    @staticmethod
    def _release_payload(block: CachedBlock) -> None:
        """Forget the block's resident payload.  A promoted blob aliases
        its cold-tier extent: detach it, so a straggling reader fails
        loudly instead of seeing the extent's next tenant."""
        if isinstance(block.blob, memoryview):
            try:
                block.blob.release()
            except BufferError:
                pass  # a sub-view reader is still mid-scan
        block.records = block.blob = block.page_group = None

    def read_records(self, key: BlockKey) -> Iterator[Any]:
        """Iterate a block's records, charging mode-appropriate costs.

        Swapped blocks are *streamed* from disk (MEMORY_AND_DISK
        semantics): they pay disk + deserialization on every access but do
        not displace resident blocks — re-promoting them would thrash the
        LRU under exactly the memory pressure that evicted them.
        """
        block = self.get(key)
        if block.on_disk:
            yield from self._read_from_disk(block)
            return
        executor = self.executor
        if block.plan.strategy is StorageStrategy.OBJECTS:
            yield from block.records
            return
        if block.plan.strategy is StorageStrategy.SERIALIZED:
            if block.blob is None:
                # Non-decomposable records cannot be blob-packed: the
                # block keeps its record list and only models the
                # serialized footprint.  Reads still pay deserialization.
                assert block.records is not None
                executor.serializer.kryo_deserialize(
                    block.footprint.objects, block.disk_bytes)
                yield from block.records
                return
            executor.serializer.kryo_deserialize(
                block.footprint.objects, len(block.blob))
            yield from block.plan.records(block.blob)
            return
        # DECA_PAGES: read decomposed records in place.
        assert block.page_group is not None
        executor.serializer.deca_read(block.record_count,
                                      block.page_group.used_bytes)
        executor.charge_compute(
            executor.prices.page_access * block.record_count)
        yield from block.page_group.records(block.plan.schema)

    def _read_from_disk(self, block: CachedBlock) -> Iterator[Any]:
        """Stream a swapped block's records without re-promoting it."""
        executor = self.executor
        payload = executor.cold_tier.stream(self._cold_name(block),
                                            block.disk_bytes)
        if block.plan.strategy is StorageStrategy.DECA_PAGES:
            # The cold bytes are already the record format — in the mmap
            # tier they stream straight out of the extent's views.
            executor.serializer.deca_read(block.record_count,
                                          block.disk_bytes)
        else:
            executor.serializer.kryo_deserialize(block.footprint.objects,
                                                 block.disk_bytes)
        if block.plan.strategy is StorageStrategy.OBJECTS:
            # Deserialized records are short-lived task-local objects.
            executor.alloc_temp(block.footprint.objects,
                                block.footprint.object_bytes)
        if block.plan.schema is None:
            yield from payload      # a parked record list
            return
        for chunk in payload:
            yield from block.plan.records(chunk)
