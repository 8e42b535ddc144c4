"""The executor memory arena (SPARK-10000, docs/memory_model.md).

Spark 1.6 — the baseline the paper's experiments ran on (§5, Appendix C)
— replaced the static ``storage.memoryFraction`` / ``shuffle.memoryFraction``
split with a *unified* memory manager: execution (shuffle buffers, reduce
merges) and storage (cached blocks, Deca page groups) share one pool and
borrow from each other.  Each executor owns one arena; cache, shuffle and
page groups ask it for memory and it decides who is evicted.

* :class:`MemoryArena` — the one interface every caller uses.
  :func:`create_memory_arena` is the only code that reads
  ``memory_mode``; no caller asks which arena it holds.
* :class:`UnifiedMemoryManager` — Spark 1.6's arena.  Storage may fill
  any memory execution is not using; execution may reclaim borrowed
  storage by evicting LRU entries down to a *storage region* floor, and
  execution's own memory is unevictable until released.
* :class:`MemoryConsumer` — the protocol execution-side clients (map-side
  writers, reduce merges) implement.  ``acquire`` grants are fair-shared:
  with N active tasks each task is bounded between ``pool/2N`` and
  ``pool/N`` of the execution pool, and a starved acquire may
  *cooperatively spill* the largest sibling consumer before failing.
* :class:`StaticMemoryArena` — the legacy split: a cache-block LRU
  against ``storage_bytes`` and one shared shuffle pool per executor
  (concurrent writers used to oversubscribe the shuffle budget K-fold).

Every unified-mode transition emits a ``memory:*`` event on the run's
:class:`~repro.obs.tracer.Tracer` bus; the deca-lint shadow validator
folds the storage-entry events of that trace to cross-check arena bytes
against the static size-type claims.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from ..config import DecaConfig
from ..obs.tracer import Tracer
from ..simtime import SimClock

if TYPE_CHECKING:
    from ..obs.sanitizer import Sanitizer

# Spark 1.6's defaults: the arena manages this fraction of the heap
# (``spark.memory.fraction``; the rest is user/metadata headroom), and
# storage is never evicted below this fraction of the arena when
# execution borrows (``spark.memory.storageFraction``).
MEMORY_FRACTION = 0.75
STORAGE_REGION_FRACTION = 0.5


class MemoryConsumer(Protocol):
    """An execution-side memory client (Spark's ``MemoryConsumer``).

    Consumers hold task-scoped, unevictable memory.  When the arena
    cannot satisfy another consumer's acquire it asks the largest
    sibling to :meth:`spill`, which must release its grants (via
    :meth:`UnifiedMemoryManager.execution_release`) and return the bytes
    it gave back.
    """

    @property
    def consumer_name(self) -> str:
        """Stable label for traces and diagnostics."""
        ...

    def spill(self) -> int:
        """Release held memory (writing state out); return bytes freed."""
        ...


#: A cache block's ``(rdd_id, partition)`` key.
BlockKey = tuple[int, int]
#: A storage entry's eviction callback: it moves the entry's bytes out
#: and discards the entry; it returns the bytes it released.
Evict = Callable[[], Optional[int]]


class MemoryArena(Protocol):
    """What an executor's memory arena offers its callers: task slots,
    storage entries evicted LRU-first through their *evict* callback
    (*block* names the cache block an entry holds; ``False`` from
    acquire/adopt means it can never fit and goes straight to disk), the
    heap's pressure handler, map-side buffers (``buffer_charge`` returns
    the bytes charged and whether the writer must spill), reduce merges
    (``execution_*``) and a counter ``snapshot``.  What the static split
    leaves unaccounted — task slots, reduce merges, pinned page-group
    growth, mp segments — is a no-op there."""

    sanitizer: Optional[Sanitizer]

    def task_started(self) -> int:
        ...

    def task_finished(self, key: int) -> int:
        ...

    def storage_acquire(self, name: str, nbytes: int,
                        evict: Optional[Evict] = None,
                        block: Optional[BlockKey] = None) -> bool:
        ...

    def storage_adopt(self, name: str, nbytes: int, evict: Evict,
                      block: Optional[BlockKey] = None) -> bool:
        ...

    def storage_register_pinned(self, name: str, nbytes: int = 0) -> None:
        ...

    def storage_grow(self, name: str, delta: int) -> None:
        ...

    def storage_touch(self, name: str) -> None:
        ...

    def storage_contains(self, name: str) -> bool:
        ...

    def storage_discard(self, name: str) -> int:
        ...

    def release_for_pressure(self, bytes_needed: int) -> int:
        ...

    def buffer_charge(self, consumer: MemoryConsumer,
                      nbytes: int) -> tuple[int, bool]:
        ...

    def buffer_release(self, consumer: MemoryConsumer, nbytes: int) -> int:
        ...

    def execution_acquire(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        ...

    def execution_release(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        ...

    def snapshot(self) -> dict[str, int]:
        ...


@dataclass
class _StorageEntry:
    """One storage-side resident: a cached block or a Deca page group."""

    name: str
    nbytes: int
    tick: int
    # ``None`` marks a pinned entry (e.g. a page group still being
    # built): it counts against the arena but cannot be evicted yet.
    evict: Optional[Evict] = None
    block: Optional[BlockKey] = None


@dataclass
class ArenaStats:
    """Monotonic counters over one arena's lifetime (bench/ablation)."""

    acquired_bytes: int = 0
    granted_bytes: int = 0
    released_bytes: int = 0
    storage_acquired_bytes: int = 0
    storage_released_bytes: int = 0
    borrow_events: int = 0
    borrowed_bytes: int = 0
    evict_events: int = 0
    evicted_bytes: int = 0
    spill_events: int = 0
    spilled_bytes: int = 0
    reject_events: int = 0
    denied_bytes: int = 0


class _ArenaBase:
    """What both arenas share: the trace bus (*clock*, *tracer*, *pid*)
    and the storage entries."""

    def __init__(self, config: DecaConfig, *,
                 clock: Optional[SimClock] = None,
                 tracer: Optional[Tracer] = None,
                 pid: int = 0) -> None:
        self.config = config
        self.clock = clock
        self.tracer = tracer
        self.pid = pid
        self.storage_used = 0
        self._entries: dict[str, _StorageEntry] = {}
        self._tick = 0
        # Entries mid-eviction: a swap's transient copies can raise heap
        # pressure re-entrantly, which must not pick them again.
        self._inflight: set[str] = set()
        # The run's sanitizer; set by the executor when config.sanitize.
        self.sanitizer: Optional[Sanitizer] = None

    def _emit(self, event: str, **args: object) -> None:
        ts = self.clock.ticks if self.clock is not None else 0
        if self.tracer is not None:
            self.tracer.instant(f"memory:{event}", "memory", ts_ticks=ts,
                                pid=self.pid, **args)

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def storage_touch(self, name: str) -> None:
        entry = self._entries.get(name)
        if entry is not None:
            entry.tick = self._next_tick()

    def storage_contains(self, name: str) -> bool:
        return name in self._entries

    def _lru_entries(self) -> list[_StorageEntry]:
        """The evictable entries, least recently used first; an entry
        whose eviction is under way is not one of them."""
        return sorted((e for e in self._entries.values()
                       if e.evict is not None
                       and e.name not in self._inflight),
                      key=lambda e: e.tick)


class StaticMemoryArena(_ArenaBase):
    """The legacy static split, as one accounting object per executor.

    Two fixed pools.  Storage holds cache blocks, evicted least recently
    used first once they exceed ``config.storage_bytes``; a block larger
    than the whole budget is rejected up front instead of evicting every
    resident for nothing.  Shuffle is one *shared* pool: every map-side
    writer charges its buffer into ``shuffle_used``, so K concurrent
    writers spill once their **combined** buffers exceed the budget
    instead of each privately holding a full budget.  Task slots, reduce
    merges, pinned page-group growth and mp segments are unaccounted.
    """

    def __init__(self, config: DecaConfig, **trace: Any) -> None:
        super().__init__(config, **trace)
        self.storage_budget = config.storage_bytes
        self.shuffle_budget = config.shuffle_bytes
        self.shuffle_used = 0

    def task_started(self) -> int:
        return 0

    def task_finished(self, key: int) -> int:
        return 0

    # -- storage: the cache-block LRU -----------------------------------------
    def storage_acquire(self, name: str, nbytes: int,
                        evict: Optional[Evict] = None,
                        block: Optional[BlockKey] = None) -> bool:
        if nbytes > self.storage_budget:
            # Fail fast: a block that can never fit must not evict every
            # resident block first only to be swapped out itself.
            assert block is not None, "the static split holds cache blocks"
            self._emit("reject", rdd_id=block[0], partition=block[1],
                       nbytes=nbytes, limit=self.storage_budget,
                       reason="exceeds-storage-budget")
            return False
        self._make_room(nbytes)
        self._entries[name] = _StorageEntry(name=name, nbytes=nbytes,
                                            tick=self._next_tick(),
                                            evict=evict, block=block)
        self.storage_used += nbytes
        return True

    # Nothing is registered while a page group is built, so sealing it
    # is an admission like any other.
    storage_adopt = storage_acquire

    def storage_register_pinned(self, name: str, nbytes: int = 0) -> None:
        pass

    def storage_grow(self, name: str, delta: int) -> None:
        pass

    def storage_discard(self, name: str) -> int:
        entry = self._entries.pop(name, None)
        if entry is None:
            return 0
        self.storage_used -= entry.nbytes
        return entry.nbytes

    def _lru_victim(self) -> Optional[_StorageEntry]:
        victim = next(iter(self._lru_entries()), None)
        if victim is not None and self.sanitizer is not None:
            self.sanitizer.note_victim(str(victim.block))
        return victim

    def _evict(self, entry: _StorageEntry) -> int:
        assert entry.evict is not None  # a victim from _lru_entries
        self._inflight.add(entry.name)
        try:
            freed = entry.evict()
        finally:
            self._inflight.discard(entry.name)
        self.storage_discard(entry.name)
        return freed or 0

    def _make_room(self, nbytes: int) -> None:
        while self.storage_used + nbytes > self.storage_budget:
            victim = self._lru_victim()
            if victim is None:
                break
            self._evict(victim)

    def release_for_pressure(self, bytes_needed: int) -> int:
        freed = 0
        while freed < bytes_needed:
            victim = self._lru_victim()
            if victim is None:
                break
            freed += self._evict(victim)
        return freed

    # -- execution: the shared shuffle pool; merges unaccounted ---------------
    def shuffle_acquire(self, nbytes: int) -> None:
        self.shuffle_used += nbytes

    def shuffle_release(self, nbytes: int) -> None:
        self.shuffle_used -= nbytes
        if self.shuffle_used < 0:
            self.shuffle_used = 0

    def buffer_charge(self, consumer: MemoryConsumer,
                      nbytes: int) -> tuple[int, bool]:
        if nbytes > 0:
            self.shuffle_acquire(nbytes)
        return nbytes, self.shuffle_used > self.shuffle_budget

    def buffer_release(self, consumer: MemoryConsumer, nbytes: int) -> int:
        self.shuffle_release(nbytes)
        return nbytes

    def execution_acquire(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        return nbytes

    def execution_release(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        return nbytes

    def snapshot(self) -> dict[str, int]:
        return {}


class UnifiedMemoryManager(_ArenaBase):
    """One execution+storage arena per executor (Spark 1.6 semantics).

    Sizing: the arena manages ``MEMORY_FRACTION`` of the executor's
    heap; ``STORAGE_REGION_FRACTION`` of it is the storage region
    execution can never evict into.  Two counters partition the arena —
    ``execution_used`` and ``storage_used`` — with the invariant that
    their sum never exceeds the total (pinned storage growth excepted,
    see :meth:`storage_grow`).

    Borrowing (§: docs/memory_model.md):

    * storage fills free execution memory beyond its region
      (``memory:borrow`` with ``side="storage"``);
    * execution reclaims borrowed storage by evicting LRU entries down
      to the region floor (``memory:evict``), and expands into unused
      storage-region memory (``memory:borrow`` with
      ``side="execution"``); its memory is unevictable until released.
    """

    def __init__(self, config: DecaConfig, **trace: Any) -> None:
        super().__init__(config, **trace)
        self.total = int(config.heap_bytes * MEMORY_FRACTION)
        self.storage_region = int(self.total * STORAGE_REGION_FRACTION)
        self.execution_used = 0
        self.stats = ArenaStats()
        # Active tasks: key -> execution bytes attributed to the task.
        self._task_used: dict[int, int] = {}
        self._task_keys = 0
        self._task_stack: list[int] = []
        # Live execution consumers:
        # id(consumer) -> (consumer, used, owning task key).
        self._consumers: dict[int, tuple[MemoryConsumer, int, int]] = {}

    # -- events ---------------------------------------------------------------
    def _emit_levels(self, event: str, **args: object) -> None:
        """Emit *event* with the pool levels after it."""
        self._emit(event, **args, execution_used=self.execution_used,
                   storage_used=self.storage_used)

    def _pool_written(self, pool: str,
                      based_on: Optional[int] = None) -> None:
        """Sanitize mode: one transition of *pool* (DECA404)."""
        if self.sanitizer is not None:
            self.sanitizer.pool_write(pool, based_on=based_on)

    def _note_borrow(self, side: str, before: int, after: int) -> None:
        """Count and trace *side* borrowing more of the other's region."""
        if after > before:
            self.stats.borrow_events += 1
            self.stats.borrowed_bytes += after - before
            self._emit_levels("borrow", side=side, nbytes=after - before)

    # -- derived views --------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return max(0, self.total - self.execution_used - self.storage_used)

    @property
    def active_tasks(self) -> int:
        return max(1, len(self._task_used))

    def execution_pool_size(self) -> int:
        """The execution pool's current maximum: everything storage has
        not claimed inside its protected region (Spark's
        ``maxMemory - min(storageUsed, storageRegionSize)``)."""
        return self.total - min(self.storage_used, self.storage_region)

    def max_per_task(self) -> int:
        """Upper fair-share bound: ``pool / N`` for N active tasks."""
        return self.execution_pool_size() // self.active_tasks

    def min_per_task(self) -> int:
        """Lower fair-share bound: ``pool / 2N`` for N active tasks."""
        return self.execution_pool_size() // (2 * self.active_tasks)

    def task_used(self, key: int) -> int:
        return self._task_used.get(key, 0)

    # -- task lifecycle -------------------------------------------------------
    def task_started(self) -> int:
        """Register a task slot; returns its arena key."""
        self._task_keys += 1
        key = self._task_keys
        self._task_used[key] = 0
        self._task_stack.append(key)
        if self.sanitizer is not None:
            self.sanitizer.note_grant(f"arena:{self.pid}:{key}")
        return key

    def task_finished(self, key: int) -> int:
        """Drop a task slot, force-releasing any leftover grants."""
        if self.sanitizer is not None:
            self.sanitizer.note_grant_release(f"arena:{self.pid}:{key}")
        leftover = self._task_used.pop(key, 0)
        if key in self._task_stack:
            self._task_stack.remove(key)
        for ident in [i for i, entry in self._consumers.items()
                      if entry[2] == key]:
            del self._consumers[ident]
        if leftover > 0:
            self.execution_used -= leftover
            self._pool_written("execution")
            self.stats.released_bytes += leftover
            self._emit_levels("release", task=key, nbytes=leftover,
                              reason="task-end")
        return leftover

    def current_task_key(self) -> int:
        """The innermost active task's key (slot 0 outside any task)."""
        if self._task_stack:
            return self._task_stack[-1]
        if 0 not in self._task_used:
            self._task_used[0] = 0
        return 0

    # -- execution side -------------------------------------------------------
    def execution_acquire(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        """Grant up to *nbytes* of unevictable execution memory.

        Returns the granted bytes (possibly zero).  The grant is clamped
        so the task never exceeds ``pool/N``; to satisfy it the arena
        first reclaims storage borrowed beyond the region floor
        (evicting LRU entries), then cooperatively spills the largest
        sibling consumer.
        """
        if nbytes <= 0:
            return 0
        name = consumer.consumer_name if consumer is not None else ""
        key = task_key if task_key is not None else self.current_task_key()
        if consumer is not None:
            # A consumer's grants all live under the task that first
            # charged it, so a later cooperative spill releases from the
            # right slot even when another task triggered it.
            entry = self._consumers.get(id(consumer))
            if entry is not None and task_key is None:
                key = entry[2]
        if key not in self._task_used:
            self._task_used[key] = 0
        self.stats.acquired_bytes += nbytes
        used = self._task_used[key]
        want = min(nbytes, max(0, self.max_per_task() - used))
        if want > 0 and self.free_bytes < want:
            # Reclaim memory storage borrowed from the execution side.
            needed = want - self.free_bytes
            reclaimable = max(0, self.storage_used - self.storage_region)
            if reclaimable > 0:
                self._evict_storage(min(needed, reclaimable),
                                    reason="execution-demand")
        if want > 0 and self.free_bytes < want:
            self._spill_siblings(want - self.free_bytes, consumer)
        # The grant derives from this last level read: no pool
        # transition may land before it is written (DECA404).
        version = (self.sanitizer.pool_read("execution")
                   if self.sanitizer is not None else None)
        granted = min(want, self.free_bytes)
        if granted <= 0:
            self.stats.denied_bytes += nbytes
            self._emit_levels("acquire", task=key, requested=nbytes,
                              granted=0, consumer=name)
            return 0
        region = self.total - self.storage_region
        borrowed = max(0, self.execution_used - region)
        self.execution_used += granted
        self._pool_written("execution", version)
        self._task_used[key] = used + granted
        if consumer is not None:
            ident = id(consumer)
            _, held, _ = self._consumers.get(ident, (consumer, 0, key))
            self._consumers[ident] = (consumer, held + granted, key)
        self.stats.granted_bytes += granted
        if granted < nbytes:
            self.stats.denied_bytes += nbytes - granted
        self._emit_levels("acquire", task=key, requested=nbytes,
                          granted=granted, consumer=name)
        self._note_borrow("execution", borrowed,
                          max(0, self.execution_used - region))
        return granted

    def execution_release(self, nbytes: int,
                          consumer: Optional[MemoryConsumer] = None,
                          task_key: Optional[int] = None) -> int:
        """Return execution memory; releases are clamped to the held
        amount so accounting can never go negative."""
        if nbytes <= 0:
            return 0
        key = task_key if task_key is not None else self.current_task_key()
        entry = None
        if consumer is not None:
            entry = self._consumers.get(id(consumer))
            if entry is None:
                # No outstanding grants for this consumer — its task may
                # already have force-released them at task end.  Freeing
                # from the ambient slot here would return bytes granted
                # to *other* consumers.
                return 0
            if task_key is None:
                # Credit the task the consumer's grants were charged
                # under (a cooperative spill may run inside a sibling
                # task's acquire).
                key = entry[2]
        held = self._task_used.get(key, 0)
        freed = min(nbytes, held, self.execution_used)
        if entry is not None:
            # A consumer can only return what it was granted; sibling
            # grants charged to the same task stay untouched.
            freed = min(freed, entry[1])
        if freed <= 0:
            return 0
        self._task_used[key] = held - freed
        self.execution_used -= freed
        self._pool_written("execution")
        if entry is not None:
            remaining = entry[1] - freed
            ident = id(entry[0])
            if remaining > 0:
                self._consumers[ident] = (entry[0], remaining, entry[2])
            else:
                del self._consumers[ident]
        self.stats.released_bytes += freed
        self._emit_levels("release", task=key, nbytes=freed,
                          reason="release")
        return freed

    def buffer_charge(self, consumer: MemoryConsumer,
                      nbytes: int) -> tuple[int, bool]:
        """Extend a writer's grant, rounded up to a page so every record
        does not pay an arena round-trip; spill when it falls short."""
        if nbytes <= 0:
            return 0, False
        granted = self.execution_acquire(
            max(nbytes, self.config.page_bytes), consumer=consumer)
        return granted, granted < nbytes

    def buffer_release(self, consumer: MemoryConsumer, nbytes: int) -> int:
        return self.execution_release(nbytes, consumer=consumer)

    def _spill_siblings(self, needed: int,
                        requester: Optional[MemoryConsumer]) -> int:
        """Cooperative spilling: ask the largest sibling consumers to
        write their state out until *needed* bytes are free."""
        freed_total = 0
        ranked = sorted(self._consumers.values(), key=lambda item: -item[1])
        for consumer, held, _key in ranked:
            if freed_total >= needed:
                break
            if requester is not None and consumer is requester:
                continue
            if held <= 0:
                continue
            freed = consumer.spill()
            if freed <= 0:
                continue
            freed_total += freed
            self.stats.spill_events += 1
            self.stats.spilled_bytes += freed
            self._emit_levels("spill", consumer=consumer.consumer_name,
                              nbytes=freed, reason="cooperative")
        return freed_total

    # -- storage side ---------------------------------------------------------
    def storage_acquire(self, name: str, nbytes: int,
                        evict: Optional[Evict] = None,
                        block: Optional[BlockKey] = None) -> bool:
        """Claim *nbytes* of storage for entry *name*.

        Storage may use every byte execution is not holding (borrowing
        free execution memory), evicting its own LRU entries to make
        room — but it cannot evict execution.  Returns ``False`` (with a
        ``memory:reject`` event) when the entry cannot fit even after
        evicting everything evictable: the caller should fail fast
        (store straight to disk) instead of thrashing.
        """
        if name in self._entries:
            raise ValueError(f"storage entry {name!r} already exists")
        if nbytes < 0:
            raise ValueError(f"negative storage claim: {nbytes}")
        limit = self.total - self.execution_used
        if nbytes <= limit:
            self._make_storage_room(nbytes)
        if self.storage_used + nbytes > limit:
            self.stats.reject_events += 1
            self._emit("reject", entry=name, nbytes=nbytes, limit=limit,
                       reason=("exceeds-storage-limit" if nbytes > limit
                               else "no-evictable-room"))
            return False
        borrowed = max(0, self.storage_used - self.storage_region)
        self._entries[name] = _StorageEntry(name=name, nbytes=nbytes,
                                            tick=self._next_tick(),
                                            evict=evict)
        self.storage_used += nbytes
        self._pool_written("storage")
        self.stats.storage_acquired_bytes += nbytes
        self._emit_levels("acquire", entry=name, nbytes=nbytes,
                          side="storage")
        self._note_borrow("storage", borrowed,
                          max(0, self.storage_used - self.storage_region))
        return True

    def storage_register_pinned(self, name: str, nbytes: int = 0) -> None:
        """Register an in-build entry (a growing page group): it counts
        against the arena but cannot be evicted until adopted."""
        if name in self._entries:
            raise ValueError(f"storage entry {name!r} already exists")
        self._entries[name] = _StorageEntry(name=name, nbytes=0,
                                            tick=self._next_tick())
        if nbytes > 0:
            self.storage_grow(name, nbytes)

    def storage_adopt(self, name: str, nbytes: int, evict: Evict,
                      block: Optional[BlockKey] = None) -> bool:
        """Seal an in-build entry: fix its size and make it evictable.

        Never refuses: the bytes already live on the heap, so an entry
        that does not fit overdraws the arena (heap pressure then evicts
        through :meth:`release_for_pressure`)."""
        entry = self._entries.get(name)
        if entry is None:
            # The builder never registered (a swapped-in object or
            # serialized block): account it now.
            if not self.storage_acquire(name, nbytes, evict=evict):
                # Force-register; the bytes already exist on the heap.
                self._entries[name] = _StorageEntry(
                    name=name, nbytes=nbytes, tick=self._next_tick(),
                    evict=evict)
                self.storage_used += nbytes
                self._pool_written("storage")
                self.stats.storage_acquired_bytes += nbytes
            return True
        delta = nbytes - entry.nbytes
        if delta:
            self.storage_grow(name, delta)
        entry.evict = evict
        entry.tick = self._next_tick()
        return True

    def storage_grow(self, name: str, delta: int) -> None:
        """Resize an existing entry by *delta* bytes (page-group growth
        or trim).  Growth evicts LRU entries best-effort; because the
        caller's bytes already live on the heap, an unevictable shortfall
        overdraws the arena rather than failing (heap pressure then
        routes back through :meth:`release_for_pressure`)."""
        entry = self._entries.get(name)
        if entry is None:
            return
        if delta > 0:
            room = self.total - self.execution_used - self.storage_used
            if delta > room:
                self._make_storage_room(delta)
            borrowed = max(0, self.storage_used - self.storage_region)
            entry.nbytes += delta
            self.storage_used += delta
            self._pool_written("storage")
            self.stats.storage_acquired_bytes += delta
            self._emit_levels("grow", entry=name, nbytes=delta,
                              total=entry.nbytes)
            self._note_borrow("storage", borrowed,
                              max(0, self.storage_used - self.storage_region))
        elif delta < 0:
            shrink = min(-delta, entry.nbytes)
            entry.nbytes -= shrink
            self.storage_used -= shrink
            self._pool_written("storage")
            self.stats.storage_released_bytes += shrink

    def storage_discard(self, name: str) -> int:
        """Forget entry *name* (idempotent); returns the bytes released."""
        entry = self._entries.pop(name, None)
        if entry is None:
            return 0
        self.storage_used -= entry.nbytes
        self._pool_written("storage")
        self.stats.storage_released_bytes += entry.nbytes
        self._emit_levels("release", entry=name, nbytes=entry.nbytes,
                          reason="storage-discard")
        return entry.nbytes

    def _make_storage_room(self, nbytes: int) -> None:
        """Evict LRU storage so a new *nbytes* storage claim fits."""
        limit = self.total - self.execution_used
        while self.storage_used + nbytes > limit:
            candidates = self._lru_entries()
            if not candidates:
                break
            self._evict_entry(candidates[0], reason="storage-demand")

    def _evict_storage(self, nbytes: int, reason: str) -> int:
        """Evict LRU entries until *nbytes* are reclaimed (never below
        the storage-region floor when execution is the claimant)."""
        freed = 0
        floor = self.storage_region if reason == "execution-demand" else 0
        while freed < nbytes and self.storage_used > floor:
            candidates = self._lru_entries()
            if not candidates:
                break
            freed += self._evict_entry(candidates[0], reason=reason)
        return freed

    def _evict_entry(self, entry: _StorageEntry, reason: str) -> int:
        nbytes = entry.nbytes
        evict = entry.evict
        if evict is not None:
            # The callback swaps the block/pages to disk and is expected
            # to discard the entry; discard again defensively (no-op
            # when already gone).
            self._inflight.add(entry.name)
            try:
                evict()
            finally:
                self._inflight.discard(entry.name)
        self.storage_discard(entry.name)
        self.stats.evict_events += 1
        self.stats.evicted_bytes += nbytes
        self._emit_levels("evict", entry=entry.name, nbytes=nbytes,
                          reason=reason)
        return nbytes

    # -- heap pressure --------------------------------------------------------
    def release_for_pressure(self, bytes_needed: int) -> int:
        """Heap pressure handler: one plane for every release path.

        Storage evicts first (LRU, straight to its floor of zero — heap
        pressure outranks the region guarantee), then execution
        consumers spill, largest first.
        """
        freed = self._evict_storage(bytes_needed, reason="heap-pressure")
        if freed < bytes_needed:
            freed += self._spill_siblings(bytes_needed - freed, None)
        return freed

    # -- reporting ------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Point-in-time arena state plus lifetime counters."""
        state = {
            "total_bytes": self.total,
            "storage_region_bytes": self.storage_region,
            "execution_used": self.execution_used,
            "storage_used": self.storage_used,
            "storage_entries": len(self._entries),
            "active_tasks": len(self._task_used),
        }
        state.update(asdict(self.stats))
        return state

    def __repr__(self) -> str:
        return (f"UnifiedMemoryManager(total={self.total} B, "
                f"exec={self.execution_used} B, "
                f"storage={self.storage_used} B, "
                f"entries={len(self._entries)})")


def create_memory_arena(config: DecaConfig, *,
                        clock: Optional[SimClock] = None,
                        tracer: Optional[Tracer] = None,
                        pid: int = 0) -> MemoryArena:
    """Build the arena matching ``config.memory_mode`` — the one place
    that reads it."""
    if config.memory_mode == "unified":
        return UnifiedMemoryManager(config, clock=clock, tracer=tracer,
                                    pid=pid)
    return StaticMemoryArena(config, clock=clock, tracer=tracer, pid=pid)
