"""The unified executor memory arena (SPARK-10000, docs/memory_model.md).

Spark 1.6 — the baseline the paper's experiments ran on (§5, Appendix C)
— replaced the static ``storage.memoryFraction`` / ``shuffle.memoryFraction``
split with a *unified* memory manager: execution (shuffle buffers, reduce
merges) and storage (cached blocks, Deca page groups) share one pool and
borrow from each other.  This module reproduces that accounting plane:

* :class:`UnifiedMemoryManager` — one arena per executor.  Storage may
  fill any memory execution is not using; execution may reclaim borrowed
  storage by evicting LRU entries down to a *storage region* floor, and
  execution's own memory is unevictable until released.
* :class:`MemoryConsumer` — the protocol execution-side clients (map-side
  writers, reduce merges) implement.  ``acquire`` grants are fair-shared:
  with N active tasks each task is bounded between ``pool/2N`` and
  ``pool/N`` of the execution pool, and a starved acquire may
  *cooperatively spill* the largest sibling consumer before failing.
* :class:`StaticMemoryArena` — the legacy split, kept byte-compatible
  with the pre-arena engine, but with one shared shuffle pool per
  executor instead of a per-writer budget check (concurrent writers used
  to oversubscribe the shuffle budget K-fold).

Every unified-mode transition emits a ``memory:*`` event on the run's
:class:`~repro.obs.tracer.Tracer` bus and notifies the module-level
observers below (how the deca-lint shadow validator cross-checks arena
bytes against the static size-type claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from ..config import DecaConfig
from ..obs.tracer import Tracer
from ..obs.vclock import VClockChecker
from ..simtime import SimClock

# Spark 1.6's defaults: the arena manages this fraction of the heap
# (``spark.memory.fraction``; the rest is user/metadata headroom), and
# storage is never evicted below this fraction of the arena when
# execution borrows (``spark.memory.storageFraction``).
MEMORY_FRACTION = 0.75
STORAGE_REGION_FRACTION = 0.5

# -- shadow-validation hooks ------------------------------------------------
# ``repro.lint``'s shadow validator registers an observer here to record
# every arena transition (event name plus its integer/string payload).
# The list is empty in normal runs, so the hot path pays one truthiness
# check per event.
MemoryObserver = Callable[[str, dict[str, object]], None]
_memory_observers: list[MemoryObserver] = []


def add_memory_observer(observer: MemoryObserver) -> None:
    """Register *observer* to be called on every arena event."""
    _memory_observers.append(observer)


def remove_memory_observer(observer: MemoryObserver) -> None:
    """Unregister a previously added memory observer."""
    _memory_observers.remove(observer)


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

    def memory_used(self) -> int:
        """Execution bytes this consumer currently holds."""
        ...

    def spill(self) -> int:
        """Release held memory (writing state out); return bytes freed."""
        ...


@dataclass
class _StorageEntry:
    """One storage-side resident: a cached block or a Deca page group."""

    name: str
    nbytes: int
    tick: int
    # ``None`` marks a pinned entry (e.g. a page group still being
    # built): it counts against the arena but cannot be evicted yet.
    evict: Optional[Callable[[], None]] = None


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

    def to_dict(self) -> dict[str, int]:
        return {
            "acquired_bytes": self.acquired_bytes,
            "granted_bytes": self.granted_bytes,
            "released_bytes": self.released_bytes,
            "storage_acquired_bytes": self.storage_acquired_bytes,
            "storage_released_bytes": self.storage_released_bytes,
            "borrow_events": self.borrow_events,
            "borrowed_bytes": self.borrowed_bytes,
            "evict_events": self.evict_events,
            "evicted_bytes": self.evicted_bytes,
            "spill_events": self.spill_events,
            "spilled_bytes": self.spilled_bytes,
            "reject_events": self.reject_events,
            "denied_bytes": self.denied_bytes,
        }


class StaticMemoryArena:
    """The legacy static split, as one accounting object per executor.

    Cache eviction stays inside :class:`~repro.spark.cache.CacheStore`
    (LRU against ``config.storage_bytes``) exactly as before; the one
    behavioural fix is the *shared* shuffle pool: every map-side writer
    now charges its buffer into ``shuffle_used``, so K concurrent
    writers spill once their **combined** buffers exceed the budget
    instead of each privately holding a full budget.
    """

    mode = "static"

    def __init__(self, config: DecaConfig) -> None:
        self.config = config
        self.shuffle_budget = config.shuffle_bytes
        self.shuffle_used = 0
        # Race sanitizer; set by the context when config.sanitize.
        self.vclock: Optional[VClockChecker] = None

    # -- shared shuffle pool ------------------------------------------------
    def shuffle_acquire(self, nbytes: int) -> None:
        """Charge *nbytes* of map-side buffer into the shared pool."""
        self.shuffle_used += nbytes

    def shuffle_release(self, nbytes: int) -> None:
        """Return buffer bytes to the pool (spill, flush or abort)."""
        self.shuffle_used -= nbytes
        if self.shuffle_used < 0:
            self.shuffle_used = 0

    def shuffle_over_budget(self) -> bool:
        """Whether the combined buffered bytes exceed the shuffle budget."""
        return self.shuffle_used > self.shuffle_budget


class UnifiedMemoryManager:
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

    mode = "unified"

    def __init__(self, config: DecaConfig, *,
                 clock: Optional[SimClock] = None,
                 tracer: Optional[Tracer] = None,
                 pid: int = 0) -> None:
        self.config = config
        self.total = int(config.heap_bytes * MEMORY_FRACTION)
        self.storage_region = int(self.total * STORAGE_REGION_FRACTION)
        self.clock = clock
        self.tracer = tracer
        self.pid = pid
        self.execution_used = 0
        self.storage_used = 0
        self.stats = ArenaStats()
        self._entries: dict[str, _StorageEntry] = {}
        self._tick = 0
        # Active tasks: key -> execution bytes attributed to the task.
        self._task_used: dict[int, int] = {}
        self._task_keys = 0
        self._task_stack: list[int] = []
        # Live execution consumers:
        # id(consumer) -> (consumer, used, owning task key).
        self._consumers: dict[int, tuple[MemoryConsumer, int, int]] = {}
        # Race sanitizer; set by the context when config.sanitize.
        self.vclock: Optional[VClockChecker] = None

    # -- events ---------------------------------------------------------------
    def _emit(self, event: str, **args: object) -> None:
        ts = self.clock.now_ms if self.clock is not None else 0.0
        if self.tracer is not None:
            self.tracer.instant(f"memory:{event}", "memory", ts_ms=ts,
                                pid=self.pid, **args)
        if _memory_observers:
            payload = dict(args)
            for observer in list(_memory_observers):
                observer(event, payload)

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
        if self.vclock is not None:
            self.vclock.note_grant(f"arena:{self.pid}:{key}")
        return key

    def task_finished(self, key: int) -> int:
        """Drop a task slot, force-releasing any leftover grants."""
        if self.vclock is not None:
            self.vclock.note_grant_release(f"arena:{self.pid}:{key}")
        leftover = self._task_used.pop(key, 0)
        if key in self._task_stack:
            self._task_stack.remove(key)
        for ident in [i for i, entry in self._consumers.items()
                      if entry[2] == key]:
            del self._consumers[ident]
        if leftover > 0:
            self.execution_used -= leftover
            self.stats.released_bytes += leftover
            self._emit("release", task=key, nbytes=leftover,
                       reason="task-end",
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
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
        granted = min(want, self.free_bytes)
        if granted <= 0:
            self.stats.denied_bytes += nbytes
            self._emit("acquire", task=key, requested=nbytes, granted=0,
                       consumer=(consumer.consumer_name
                                 if consumer is not None else ""),
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
            return 0
        borrowed_before = max(0, self.execution_used
                              - (self.total - self.storage_region))
        self.execution_used += granted
        self._task_used[key] = used + granted
        if consumer is not None:
            ident = id(consumer)
            _, held, _ = self._consumers.get(ident, (consumer, 0, key))
            self._consumers[ident] = (consumer, held + granted, key)
        self.stats.granted_bytes += granted
        if granted < nbytes:
            self.stats.denied_bytes += nbytes - granted
        self._emit("acquire", task=key, requested=nbytes, granted=granted,
                   consumer=(consumer.consumer_name
                             if consumer is not None else ""),
                   execution_used=self.execution_used,
                   storage_used=self.storage_used)
        borrowed_after = max(0, self.execution_used
                             - (self.total - self.storage_region))
        if borrowed_after > borrowed_before:
            delta = borrowed_after - borrowed_before
            self.stats.borrow_events += 1
            self.stats.borrowed_bytes += delta
            self._emit("borrow", side="execution", nbytes=delta,
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
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
        if entry is not None:
            remaining = entry[1] - freed
            ident = id(entry[0])
            if remaining > 0:
                self._consumers[ident] = (entry[0], remaining, entry[2])
            else:
                del self._consumers[ident]
        self.stats.released_bytes += freed
        self._emit("release", task=key, nbytes=freed, reason="release",
                   execution_used=self.execution_used,
                   storage_used=self.storage_used)
        return freed

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
            self._emit("spill", consumer=consumer.consumer_name,
                       nbytes=freed, reason="cooperative",
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
        return freed_total

    # -- storage side ---------------------------------------------------------
    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def storage_acquire(self, name: str, nbytes: int,
                        evict: Optional[Callable[[], None]] = None) -> bool:
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
        if nbytes > limit:
            self.stats.reject_events += 1
            self._emit("reject", entry=name, nbytes=nbytes, limit=limit,
                       reason="exceeds-storage-limit")
            return False
        self._make_storage_room(nbytes)
        if self.storage_used + nbytes > limit:
            self.stats.reject_events += 1
            self._emit("reject", entry=name, nbytes=nbytes, limit=limit,
                       reason="no-evictable-room")
            return False
        borrowed_before = max(0, self.storage_used - self.storage_region)
        self._entries[name] = _StorageEntry(name=name, nbytes=nbytes,
                                            tick=self._next_tick(),
                                            evict=evict)
        self.storage_used += nbytes
        self.stats.storage_acquired_bytes += nbytes
        self._emit("acquire", entry=name, nbytes=nbytes, side="storage",
                   execution_used=self.execution_used,
                   storage_used=self.storage_used)
        borrowed_after = max(0, self.storage_used - self.storage_region)
        if borrowed_after > borrowed_before:
            delta = borrowed_after - borrowed_before
            self.stats.borrow_events += 1
            self.stats.borrowed_bytes += delta
            self._emit("borrow", side="storage", nbytes=delta,
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
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

    def storage_adopt(self, name: str, nbytes: int,
                      evict: Callable[[], None]) -> None:
        """Seal an in-build entry: fix its size and make it evictable."""
        entry = self._entries.get(name)
        if entry is None:
            # The builder never registered (e.g. a bare page group made
            # without the arena attached): account it now.
            if not self.storage_acquire(name, nbytes, evict=evict):
                # Force-register; the bytes already exist on the heap.
                self._entries[name] = _StorageEntry(
                    name=name, nbytes=nbytes, tick=self._next_tick(),
                    evict=evict)
                self.storage_used += nbytes
                self.stats.storage_acquired_bytes += nbytes
            return
        delta = nbytes - entry.nbytes
        if delta:
            self.storage_grow(name, delta)
        entry.evict = evict
        entry.tick = self._next_tick()

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
            borrowed_before = max(0, self.storage_used
                                  - self.storage_region)
            entry.nbytes += delta
            self.storage_used += delta
            self.stats.storage_acquired_bytes += delta
            self._emit("grow", entry=name, nbytes=delta,
                       total=entry.nbytes,
                       execution_used=self.execution_used,
                       storage_used=self.storage_used)
            borrowed_after = max(0, self.storage_used
                                 - self.storage_region)
            if borrowed_after > borrowed_before:
                grown = borrowed_after - borrowed_before
                self.stats.borrow_events += 1
                self.stats.borrowed_bytes += grown
                self._emit("borrow", side="storage", nbytes=grown,
                           execution_used=self.execution_used,
                           storage_used=self.storage_used)
        elif delta < 0:
            shrink = min(-delta, entry.nbytes)
            entry.nbytes -= shrink
            self.storage_used -= shrink
            self.stats.storage_released_bytes += shrink

    def storage_touch(self, name: str) -> None:
        entry = self._entries.get(name)
        if entry is not None:
            entry.tick = self._next_tick()

    def storage_contains(self, name: str) -> bool:
        return name in self._entries

    def storage_discard(self, name: str) -> int:
        """Forget entry *name* (idempotent); returns the bytes released."""
        entry = self._entries.pop(name, None)
        if entry is None:
            return 0
        self.storage_used -= entry.nbytes
        self.stats.storage_released_bytes += entry.nbytes
        self._emit("release", entry=name, nbytes=entry.nbytes,
                   reason="storage-discard",
                   execution_used=self.execution_used,
                   storage_used=self.storage_used)
        return entry.nbytes

    def _lru_entries(self) -> list[_StorageEntry]:
        return sorted((e for e in self._entries.values()
                       if e.evict is not None), key=lambda e: e.tick)

    def _make_storage_room(self, nbytes: int) -> None:
        """Evict LRU storage so a new *nbytes* storage claim fits."""
        limit = self.total - self.execution_used
        while (self.storage_used + nbytes > limit
               and any(e.evict is not None
                       for e in self._entries.values())):
            victim = self._lru_entries()[0]
            self._evict_entry(victim, reason="storage-demand")

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
            evict()
        self.storage_discard(entry.name)
        self.stats.evict_events += 1
        self.stats.evicted_bytes += nbytes
        self._emit("evict", entry=entry.name, nbytes=nbytes, reason=reason,
                   execution_used=self.execution_used,
                   storage_used=self.storage_used)
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
        state.update(self.stats.to_dict())
        return state

    def __repr__(self) -> str:
        return (f"UnifiedMemoryManager(total={self.total} B, "
                f"exec={self.execution_used} B, "
                f"storage={self.storage_used} B, "
                f"entries={len(self._entries)})")


MemoryArena = StaticMemoryArena | UnifiedMemoryManager


def create_memory_arena(config: DecaConfig, *,
                        clock: Optional[SimClock] = None,
                        tracer: Optional[Tracer] = None,
                        pid: int = 0) -> MemoryArena:
    """Build the arena matching ``config.memory_mode``."""
    if config.memory_mode == "unified":
        return UnifiedMemoryManager(config, clock=clock, tracer=tracer,
                                    pid=pid)
    return StaticMemoryArena(config)
