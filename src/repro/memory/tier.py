"""The cold tier: where swapped containers and shuffle spills go.

Deca pages hold raw wire-format bytes, so swapping a page group out does
not need a serialize/deserialize round trip — the TeraHeap observation
(*Garbage Collection or Serialization? Between a Rock and a Hard Place!*,
PAPERS.md) is that paying one anyway means paying twice: once in GC
pressure from the transient heap copies, once in serde time.
:class:`ColdTier` is the one interface the cache store, the shuffle
spills and the SQL engine use; :func:`cold_tier_for` is the only code
that reads ``DecaConfig.cold_tier``.  :class:`HeapColdTier` parks
payloads at simulated-disk cost (the paper figures' tier);
:class:`MmapColdTier` moves page bytes into a :class:`PageStoreTier`,
the extent store that makes the swap a plain byte move:

* one **extent** per page group, carved from a file-backed ``mmap``
  region with a first-fit free list (freed extents coalesce with their
  neighbours and are reused);
* **swap-out** writes each page's used bytes buffer-to-buffer into the
  extent — no intermediate Python ``bytes`` objects;
* **swap-in** hands back writable ``memoryview`` slices of the mapping,
  which :meth:`repro.memory.page.PageGroup.adopt_page` mounts as pages
  readable through the existing SUDT/schema accessors — zero copies in
  the promotion direction.

The tier grows by remapping (never ``mmap.resize``, which refuses while
promoted views are exported); shared mappings of one file are coherent,
so views handed out from an older, shorter mapping stay valid after a
grow.  A leftover tier file from a killed run is truncated on startup
(its extent directory died with the process, so the bytes are garbage),
and the file is unlinked when the creating process drops the tier — a
forked worker inheriting the object must never unlink the driver's file,
hence the creator-pid guard.
"""

from __future__ import annotations

import itertools
import mmap
import os
import tempfile
import weakref
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import PageError
from ..jvm.objects import Lifetime
from ..jvm.sizing import array_bytes
from ..simtime import ticks_to_ms
from .page import PageGroup

if TYPE_CHECKING:
    from ..obs.sanitizer import Sanitizer

#: Tier files are named ``repro-tier-<pid>-<seq>[-<tag>].bin`` in the
#: temp dir; scripts/check_mp_leaks.py flags files whose pid is dead.
TIER_FILE_PREFIX = "repro-tier"

#: Extents are reserved on this granularity so frees coalesce cleanly.
_GRANULE = 4096

#: First file growth; subsequent grows double, bounding remap count.
_MIN_FILE_BYTES = 1 << 20

_file_seq = itertools.count()


def default_tier_path(tag: str = "") -> str:
    """A fresh per-process tier file path under the temp dir."""
    suffix = f"-{tag}" if tag else ""
    name = f"{TIER_FILE_PREFIX}-{os.getpid()}-{next(_file_seq)}{suffix}.bin"
    return os.path.join(tempfile.gettempdir(), name)


def _dispose(fd: int, path: str, creator_pid: int) -> None:
    """Finalizer: close the fd and (creator only) unlink the file."""
    try:
        os.close(fd)
    except OSError:
        pass
    if os.getpid() == creator_pid:
        try:
            os.unlink(path)
        except OSError:
            pass


@dataclass(frozen=True)
class TierExtent:
    """One page group's reservation in the tier file."""

    offset: int             # file offset of the reservation
    length: int             # granule-aligned reserved bytes
    chunks: tuple[int, ...]  # per-page byte lengths (sum <= length)

    @property
    def used_bytes(self) -> int:
        return sum(self.chunks)


@dataclass
class TierStats:
    """Lifetime counters of one tier (integer-only, determinism-safe)."""

    swap_out_count: int = 0
    swap_in_count: int = 0
    drop_count: int = 0
    bytes_moved_out: int = 0   # bytes physically written into extents
    bytes_moved_in: int = 0    # bytes promoted back as zero-copy views
    spill_count: int = 0       # shuffle spills routed to the tier
    spill_bytes: int = 0
    extents_live: int = 0
    extent_bytes_live: int = 0  # reserved (granule-aligned) live bytes
    file_bytes: int = 0
    truncated_bytes: int = 0   # leftover bytes reclaimed on startup

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class PageStoreTier:
    """A mmap extent store holding cold page groups as raw bytes.

    ``tracer``/``clock``/``pid`` mirror the executor's trace wiring;
    every operation lands on the run's trace bus as a ``tier:*`` instant
    event (see docs/memory_model.md).  The *tag* names the file and, for
    the *sanitizer*, the extents: one sanitizer watches every executor's
    tier, so extent ``x`` of tier ``e0`` is resource ``e0:x``.
    """

    def __init__(self, path: str | None = None, *, tracer: Any = None,
                 clock: Any = None, pid: int = 0, tag: str = "",
                 sanitizer: Sanitizer | None = None) -> None:
        self.path = path if path is not None else default_tier_path(tag)
        self.tracer = tracer
        self.clock = clock
        self.pid = pid
        # Sanitize mode: every exported view is a borrow checked when its
        # extent is freed / remapped, and every export an access the
        # drop must happen-after (None = off).
        self.sanitizer = sanitizer
        self._owner = f"{tag}:" if tag else ""
        self._creator_pid = os.getpid()
        self._closed = False
        try:
            leftover = os.path.getsize(self.path)
        except OSError:
            leftover = 0
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
        if leftover:
            # Crash safety: the extent directory of whatever run wrote
            # these bytes died with its process, so the content is
            # unrecoverable garbage — reclaim it before mapping.
            os.ftruncate(self._fd, 0)
        self._size = 0
        self._mm: mmap.mmap | None = None
        # Mappings outgrown by a remap but still referenced by exported
        # promotion views; they die when the last view does.
        self._retired: list[mmap.mmap] = []
        # Sorted, coalesced [offset, length] holes covering every byte
        # of the file that no live extent reserves.
        self._free: list[list[int]] = []
        self._extents: dict[str, TierExtent] = {}
        # Names of extents dropped at least once (sanitize mode only) so
        # a re-drop after the idempotent pop can be told apart from a
        # drop of a name that never existed.
        self._dropped: set[str] = set()
        self.stats = TierStats()
        if leftover:
            self.stats.truncated_bytes = leftover
            self._emit("tier:truncate", reclaimed_bytes=leftover)
        self._finalizer = weakref.finalize(
            self, _dispose, self._fd, self.path, self._creator_pid)

    # -- bookkeeping -----------------------------------------------------------
    @property
    def file_bytes(self) -> int:
        return self._size

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def live_bytes(self) -> int:
        """Reserved bytes of live extents (granule-aligned)."""
        return sum(extent.length for extent in self._extents.values())

    def has(self, name: str) -> bool:
        return name in self._extents

    def extent_of(self, name: str) -> TierExtent:
        try:
            return self._extents[name]
        except KeyError:
            raise PageError(f"no tier extent {name!r}") from None

    def _emit(self, event: str, **args: Any) -> None:
        if self.tracer is None:
            return
        ts = self.clock.ticks if self.clock is not None else 0
        self.tracer.instant(event, "tier", ts_ticks=ts, pid=self.pid, **args)

    def _check_open(self) -> None:
        if self._closed:
            raise PageError(f"tier {self.path!r} is closed")

    # -- extent allocation -----------------------------------------------------
    def _allocate(self, nbytes: int) -> tuple[int, int]:
        """Reserve a granule-aligned hole >= *nbytes*; returns
        ``(offset, length)``."""
        need = max(_GRANULE,
                   (nbytes + _GRANULE - 1) // _GRANULE * _GRANULE)
        for hole in self._free:
            offset, length = hole
            if length >= need:
                if length == need:
                    self._free.remove(hole)
                else:
                    hole[0] = offset + need
                    hole[1] = length - need
                return offset, need
        self._grow(need)
        return self._allocate(nbytes)

    def _grow(self, need: int) -> None:
        new_size = max(self._size * 2, self._size + need, _MIN_FILE_BYTES)
        os.ftruncate(self._fd, new_size)
        old = self._mm
        self._mm = mmap.mmap(self._fd, new_size)
        if old is not None:
            try:
                old.close()
            except BufferError:
                # Promoted views still reference the old mapping; it is
                # released when the last of them is dropped.
                self._retired.append(old)
        if self.sanitizer is not None:
            # The old mapping was retired, not resized in place, so every
            # exported view stays valid — the safe remap protocol.
            self.sanitizer.note_remap(
                "extent", [self._owner + name for name in self._extents],
                retired=True)
        self._release(self._size, new_size - self._size)
        self._size = new_size
        self.stats.file_bytes = new_size

    def _release(self, offset: int, length: int) -> None:
        """Return ``[offset, length]`` to the free list, coalescing."""
        if length <= 0:
            return
        self._free.append([offset, length])
        self._free.sort()
        merged: list[list[int]] = []
        for hole in self._free:
            if merged and merged[-1][0] + merged[-1][1] == hole[0]:
                merged[-1][1] += hole[1]
            else:
                merged.append(hole)
        self._free = merged

    # -- the swap data plane ---------------------------------------------------
    def swap_out(self, name: str, chunks: Iterable[memoryview | bytes
                                                  | bytearray]) -> int:
        """Move *chunks* (one per page) into a fresh extent *name*.

        The write is buffer-to-buffer into the mapping — no intermediate
        Python-heap ``bytes`` copies.  Returns the bytes moved.
        """
        self._check_open()
        if name in self._extents:
            raise PageError(f"tier extent {name!r} already exists")
        chunks = list(chunks)
        sizes = tuple(len(chunk) for chunk in chunks)
        total = sum(sizes)
        offset, length = self._allocate(total)
        mm = self._mm
        assert mm is not None
        pos = offset
        for chunk in chunks:
            n = len(chunk)
            mm[pos:pos + n] = chunk
            pos += n
        self._extents[name] = TierExtent(offset, length, sizes)
        if self.sanitizer is not None:
            self.sanitizer.create("extent", self._owner + name)
        self.stats.swap_out_count += 1
        self.stats.bytes_moved_out += total
        self.stats.extents_live = len(self._extents)
        self.stats.extent_bytes_live = self.live_bytes
        self._emit("tier:swap-out", extent=name, nbytes=total,
                   extent_offset=offset, extents_live=len(self._extents),
                   file_bytes=self._size)
        return total

    def views(self, name: str, group: PageGroup | None = None,
              transient: bool = True) -> list[memoryview]:
        """Writable zero-copy views over extent *name*, one per page;
        the sanitizer holds them transient unless the caller keeps them
        (*transient* false), adopted by *group* if one mounts them."""
        self._check_open()
        extent = self.extent_of(name)
        mm = self._mm
        assert mm is not None
        base = memoryview(mm)
        out: list[memoryview] = []
        pos = extent.offset
        for n in extent.chunks:
            out.append(base[pos:pos + n])
            pos += n
        if self.sanitizer is not None:
            self.sanitizer.export("extent", self._owner + name, out,
                                  transient=transient, group=group)
        return out

    def swap_in(self, name: str,
                group: PageGroup | None = None) -> list[memoryview]:
        """Promote extent *name*: zero-copy views the caller keeps, or
        mounts as *group*'s pages.  The extent stays reserved — a later
        swap-out of the same group moves no bytes, and :meth:`drop`
        releases it."""
        views = self.views(name, group, transient=False)
        used = self.extent_of(name).used_bytes
        self.stats.swap_in_count += 1
        self.stats.bytes_moved_in += used
        self._emit("tier:swap-in", extent=name, nbytes=used,
                   extents_live=len(self._extents))
        return views

    def drop(self, name: str) -> int:
        """Release extent *name* (idempotent); returns its used bytes."""
        extent = self._extents.pop(name, None)
        if extent is None:
            if self.sanitizer is not None and name in self._dropped:
                # Second drop of an extent we saw die: double-free.
                self.sanitizer.free("extent", self._owner + name)
            return 0
        if self.sanitizer is not None:
            self._dropped.add(name)
            # The freed bytes are poisoned, so any alias that slipped past
            # the borrow check reads a sentinel, not stale data.
            self.sanitizer.free("extent", self._owner + name, mm=self._mm,
                                offset=extent.offset, length=extent.length)
        self._release(extent.offset, extent.length)
        self.stats.drop_count += 1
        self.stats.extents_live = len(self._extents)
        self.stats.extent_bytes_live = self.live_bytes
        self._emit("tier:drop", extent=name, nbytes=extent.used_bytes,
                   extents_live=len(self._extents))
        return extent.used_bytes

    def note_spill(self, nbytes: int) -> None:
        """Account one shuffle spill routed to the tier (cost-model
        path: the spilled buffer has no materialized bytes to move)."""
        self.stats.spill_count += 1
        self.stats.spill_bytes += nbytes
        self._emit("tier:spill", nbytes=nbytes)

    def close(self) -> None:
        """Drop the mapping and (in the creating process) the file."""
        if self._closed:
            return
        self._closed = True
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass  # exported views; the mapping dies with them
            self._mm = None
        self._finalizer()

    def __repr__(self) -> str:
        return (f"PageStoreTier({self.path!r}, extents="
                f"{len(self._extents)}, file={self._size} B)")


# -- the cold tier callers use --------------------------------------------------

class ColdTier:
    """What a cold tier offers its callers, written down once.

    A container is named (``cache:<key>``, ``sql:<table>``); *disk_bytes*
    is its modelled disk image.  ``park`` holds a Python payload,
    ``demote`` raw byte chunks (a blob) and ``demote_group`` a page
    group's pages, reclaiming it; each returns the bytes it moved.
    ``promote_group`` mounts one page per chunk into an empty group, in
    order, so every ``PagePointer`` stays valid.  Payloads and chunks
    are parked in a dict here (the heap tier's plane).  The *owner* (an
    executor) supplies ``heap``, ``serializer``, ``sanitizer``,
    ``tracer``, ``clock``, ``tier_ticks`` and the :attr:`charges`
    methods; the mmap tier names its file and events after its
    ``executor_id`` and ``trace_pid``.
    """

    #: The owner's ``(write, read)`` charge methods.
    charges: tuple[str, str]

    def __init__(self, owner: Any) -> None:
        self.owner = owner
        write, read = self.charges
        self._charge_write = getattr(owner, write)
        self._charge_read = getattr(owner, read)
        self._parked: dict[str, Any] = {}

    def _open(self) -> object:
        return None  # the mmap tier opens its file here

    def park(self, name: str, payload: Any, disk_bytes: int) -> int:
        self._open()
        self._parked[name] = payload
        self._charge_write(disk_bytes)
        return 0

    def demote(self, name: str, chunks: list[Any], disk_bytes: int) -> int:
        return self.park(name, chunks, disk_bytes)

    def demote_group(self, name: str, group: PageGroup,
                     disk_bytes: int) -> int:
        raise NotImplementedError

    def promote(self, name: str, disk_bytes: int) -> Any:
        self._charge_read(disk_bytes)
        return self._parked.pop(name)

    def promote_group(self, name: str, group: PageGroup,
                      disk_bytes: int) -> None:
        raise NotImplementedError

    def stream(self, name: str, disk_bytes: int) -> Any:
        self._charge_read(disk_bytes)
        return self._parked[name]

    def holds(self, name: str) -> bool:
        return name in self._parked

    def drop(self, name: str) -> None:
        self._parked.pop(name, None)

    def spill(self, nbytes: int) -> None:
        """A shuffle spill's write (cost model only: no bytes move)."""
        self._charge_write(nbytes)

    def swap_out_args(self, moved: int) -> dict[str, int]:
        """Extra ``cache:swap-out`` trace args."""
        return {}

    def snapshot(self) -> dict[str, int]:
        """Counters for ``RunMetrics.tier``: none without a file."""
        return {}

    def close(self) -> None:
        """Release the tier's file, if it opened one."""


class HeapColdTier(ColdTier):
    """Containers parked on the Python heap at simulated-disk cost; page
    groups go through counted heap copies both ways."""

    charges = ("charge_disk_write", "charge_disk_read")

    def demote_group(self, name: str, group: PageGroup,
                     disk_bytes: int) -> int:
        """Drain *group* page by page, charging each copy and releasing
        its source, so the double-buffer transient is bounded at one page
        (not ~2x the group); the copies are freed once the disk write has
        consumed them."""
        heap, sanitizer = self.owner.heap, self.owner.sanitizer
        copy_group = heap.new_group(f"swap-copy:{name}", Lifetime.PINNED)
        group.sanitizer = sanitizer
        chunks: list[bytes] = []
        for chunk in group.drain():
            self.owner.serializer.note_swap_copy(len(chunk))
            copy_bytes = array_bytes(1, len(chunk))
            heap.allocate(copy_group, 1, copy_bytes)
            chunks.append(chunk)
            copy_group.shrink(copy_bytes)
        self._parked[name] = chunks
        self._charge_write(disk_bytes)
        if not copy_group.freed:
            heap.free_group(copy_group)
        if sanitizer is not None:
            sanitizer.release_drain(group.name)
        return sum(len(chunk) for chunk in chunks)

    def promote_group(self, name: str, group: PageGroup,
                      disk_bytes: int) -> None:
        for chunk in self.promote(name, disk_bytes):
            self.owner.serializer.note_swap_copy(len(chunk))
            group.append_run(chunk)


class MmapColdTier(ColdTier):
    """Bytes in a :class:`PageStoreTier` opened on the first swap (a run
    that never swaps never touches the filesystem).  A demoted blob or
    group is one extent, promoted back as zero-copy views; it outlives
    the promotion, so a re-demote moves nothing, until :meth:`drop`."""

    charges = ("charge_tier_write", "charge_tier_read")

    def __init__(self, owner: Any) -> None:
        super().__init__(owner)
        self.extents: PageStoreTier | None = None

    def _open(self) -> PageStoreTier:
        if self.extents is None:
            owner = self.owner
            self.extents = PageStoreTier(
                tracer=owner.tracer, clock=owner.clock, pid=owner.trace_pid,
                tag=f"e{owner.executor_id}", sanitizer=owner.sanitizer)
        return self.extents

    def _has_extent(self, name: str) -> bool:
        return self.extents is not None and self.extents.has(name)

    def demote(self, name: str, chunks: list[Any], disk_bytes: int) -> int:
        extents = self._open()
        moved = 0 if extents.has(name) else extents.swap_out(name, chunks)
        self._charge_write(moved)
        return moved

    def demote_group(self, name: str, group: PageGroup,
                     disk_bytes: int) -> int:
        extents = self._open()
        # A promoted group's pages alias its extent: nothing to move.
        moved = (0 if extents.has(name)
                 else extents.swap_out(name, group.swap_chunks()))
        group.reclaim()
        self._charge_write(moved)
        return moved

    def promote(self, name: str, disk_bytes: int) -> Any:
        if not self._has_extent(name):
            return super().promote(name, disk_bytes)
        self._charge_read(disk_bytes)
        return self._open().swap_in(name)

    def promote_group(self, name: str, group: PageGroup,
                      disk_bytes: int) -> None:
        self._charge_read(disk_bytes)
        # Adoption hands the views' lifetime to the page group: its
        # reclaim must detach them (checked at finish).
        group.sanitizer = self.owner.sanitizer
        for view in self._open().swap_in(name, group):
            group.adopt_page(view)

    def stream(self, name: str, disk_bytes: int) -> Any:
        if not self._has_extent(name):
            return super().stream(name, disk_bytes)
        self._charge_read(disk_bytes)
        return self._open().views(name)

    def holds(self, name: str) -> bool:
        return super().holds(name) or self._has_extent(name)

    def drop(self, name: str) -> None:
        self._parked.pop(name, None)
        # A name without an extent is not dropped, so dropping a block
        # that never swapped neither opens the file nor reads as a
        # double free to the sanitizer.
        if self._has_extent(name):
            self._open().drop(name)

    def spill(self, nbytes: int) -> None:
        extents = self._open()
        super().spill(nbytes)
        extents.note_spill(nbytes)

    def swap_out_args(self, moved: int) -> dict[str, int]:
        return {"tier_bytes": moved}

    def snapshot(self) -> dict[str, int]:
        if self.extents is None:
            return {}
        stats = self.extents.stats.to_dict()
        stats["tier_ms"] = round(ticks_to_ms(self.owner.tier_ticks), 3)
        return stats

    def close(self) -> None:
        if self.extents is not None:
            self.extents.close()


def cold_tier_for(owner: Any) -> ColdTier:
    """Build executor *owner*'s tier from ``owner.config.cold_tier`` —
    the one place that reads it."""
    if owner.config.cold_tier == "mmap":
        return MmapColdTier(owner)
    return HeapColdTier(owner)
