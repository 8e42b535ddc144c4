"""The per-executor Deca memory manager (paper §5, Appendix C).

The memory manager allocates and reclaims memory pages.  It works together
with the engine's cache manager and shuffle manager (which handle the
un-decomposed object data): containers ask it for page groups, and under
heap pressure the *least recently used* evictable page group is swapped
out as raw bytes — no serialization step, because the pages already are
the wire format (Appendix C).  The LRU order itself belongs to whoever
owns the blocks: :class:`repro.spark.cache.CacheStore` in static mode,
the executor arena (which :meth:`DecaMemoryManager.touch` forwards to) in
unified mode.
"""

from __future__ import annotations

from typing import Iterator

from ..config import DecaConfig
from ..errors import PageError
from ..jvm.heap import SimHeap
from .page import PageGroup
from .unified import UnifiedMemoryManager


class DecaMemoryManager:
    """Creates, tracks and reclaims the page groups of one executor."""

    def __init__(self, config: DecaConfig, heap: SimHeap | None = None,
                 arena: UnifiedMemoryManager | None = None) -> None:
        self.config = config
        self.heap = heap
        # In unified mode evictable page groups register as storage
        # entries of the executor arena, so page-group swap-out competes
        # in the same LRU as cached blocks.
        self.arena = arena
        self._groups: dict[str, PageGroup] = {}
        self._evictable: set[str] = set()

    # -- group lifecycle -------------------------------------------------------
    def new_page_group(self, name: str, *, evictable: bool = False,
                       page_bytes: int | None = None) -> PageGroup:
        """Allocate a page group for a container.

        *evictable* marks groups backing cache blocks: they participate in
        the LRU swap-out of Appendix C.  Shuffle page groups are not
        evictable (they spill through the shuffle path instead).
        """
        if name in self._groups:
            raise PageError(f"page group {name!r} already exists")
        group = PageGroup(
            name,
            page_bytes if page_bytes is not None else self.config.page_bytes,
            heap=self.heap,
            on_reclaim=self._forget,
            on_resize=self._resized if (self.arena is not None and evictable)
            else None,
        )
        self._groups[name] = group
        if evictable:
            self._evictable.add(name)
            if self.arena is not None:
                # Pinned while being built; the cache adopts the entry
                # (making it evictable) once the block is sealed.
                self.arena.storage_register_pinned(name)
            self.touch(group)
        return group

    def _resized(self, group: PageGroup, delta: int) -> None:
        if self.arena is not None:
            self.arena.storage_grow(group.name, delta)

    def _forget(self, group: PageGroup) -> None:
        was_evictable = group.name in self._evictable
        self._groups.pop(group.name, None)
        self._evictable.discard(group.name)
        if self.arena is not None and was_evictable:
            self.arena.storage_discard(group.name)

    def touch(self, group: PageGroup) -> None:
        """Tell the arena's storage LRU that *group* was just read."""
        if self.arena is not None:
            self.arena.storage_touch(group.name)

    # -- stats ---------------------------------------------------------------------
    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def page_count(self) -> int:
        return sum(g.page_count for g in self._groups.values())

    @property
    def used_bytes(self) -> int:
        """Record bytes stored across all live page groups."""
        return sum(g.used_bytes for g in self._groups.values())

    @property
    def allocated_bytes(self) -> int:
        """Heap bytes held by all live page groups."""
        return sum(g.allocated_bytes for g in self._groups.values())

    def groups(self) -> Iterator[PageGroup]:
        return iter(list(self._groups.values()))

    def __repr__(self) -> str:
        return (f"DecaMemoryManager(groups={self.group_count}, "
                f"pages={self.page_count}, used={self.used_bytes} B)")
