"""Shared-memory Deca page segments (the mp backend's data plane).

Every block that crosses a process boundary under the mp backend — a
shuffle map output or a cached block — crosses as one
:class:`BlockPayload` in the form its container's plan fixes
(:func:`ship_block`), and is read back by one reader
(:func:`read_block`).  A decomposed container is packed once into a
POSIX shared-memory segment and read **in place** by every consumer
process through schema accessors over a ``memoryview``.  No pickle, no
copy of the byte stream: the segment *is* the Deca page group, exactly
the property §4.3 claims for decomposed data.

Lifecycle rules:

* the **worker that runs the producing task creates** the segment, packs
  the records and immediately detaches.  Segments are **untracked**: a
  mapping is ``shm_open`` + ``mmap`` and nothing else, with no round
  trip to the stdlib resource tracker, so no process but the driver ever
  unlinks one — the owner of a segment's lifetime is the *driver*, not
  whichever process happened to create or attach it;
* the **driver registers** the segment in a :class:`ShmSegmentRegistry`
  with a reference count; consumers attach/detach without touching the
  count — a reader mounts the segment as a page group of its own and
  reclaims it when its scan ends — while logical owners (a shuffle's
  blocks, a cached RDD) hold references; the segment is unlinked, by
  name, when the last one is released;
* segment names are **deterministic** (``repro-mp-<pid>-<run>-...``), so
  after a worker dies mid-task the driver can sweep the attempt's
  leftover segments from ``/dev/shm`` by prefix without any cooperation
  from the dead process;
* an ``atexit`` sweep unlinks anything still registered when the driver
  interpreter exits, so a test run that never calls ``ctx.finish()``
  still leaves ``/dev/shm`` clean (the CI leak guard asserts this).
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..core.plan import ContainerPlan, StorageStrategy
from ..errors import PageError
from ..memory.layout import Schema
from ..memory.page import Page, PageGroup
from ..obs.sanitizer import Sanitizer

try:  # pragma: no cover - the stdlib builds it on every POSIX platform
    import _posixshmem
except ImportError:  # pragma: no cover
    _posixshmem = None  # type: ignore[assignment]

#: Every segment of every run starts with this, so the leak guard (and the
#: orphan sweep after a worker death) can recognise ours by name alone.
SEGMENT_PREFIX = "repro-mp"

#: Linux mounts POSIX shared memory here; the sweep helpers are no-ops on
#: platforms without it.
_SHM_DIR = "/dev/shm"


def shm_available() -> bool:
    """Whether this platform can back Deca pages with shared memory."""
    return _posixshmem is not None


def _map_segment(name: str, nbytes: int, create: bool) -> mmap.mmap:
    """Map segment *name*, creating it with *nbytes* if *create*.

    The fd is closed once mapped (the mapping keeps its own duplicate).
    """
    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if create:
            os.ftruncate(fd, nbytes)
        return mmap.mmap(fd, os.fstat(fd).st_size)
    except OSError:
        if create:
            unlink_segment(name)
        raise
    finally:
        os.close(fd)


@dataclass(frozen=True)
class SegmentRef:
    """A process-portable handle on one packed segment.

    ``name`` is ``None`` for an empty container (no segment is created
    for zero records — shared memory cannot be zero-sized anyway).
    """

    name: str | None
    nbytes: int
    count: int


EMPTY_SEGMENT = SegmentRef(name=None, nbytes=0, count=0)


class SharedPageSegment:
    """An attached shared-memory segment serving page buffers.

    Writers bump-allocate page buffers out of the mapping; readers wrap
    the used span as one :class:`~repro.memory.page.Page`.  ``close``
    drops this process's mapping only; :func:`unlink_segment` removes the
    segment from the system (driver-side, via the registry).
    """

    def __init__(self, name: str, nbytes: int = 0,
                 create: bool = False) -> None:
        if _posixshmem is None:  # pragma: no cover
            raise PageError("shared memory is unavailable on this platform")
        if create and nbytes <= 0:
            raise PageError(f"segment {name!r} needs a positive size")
        self.name = name
        self._shm = _map_segment(name, nbytes, create)
        # Attach side with no size given: the mapping is exactly the
        # creator's ``ftruncate`` size (``fstat`` does not page-round).
        self.nbytes = nbytes or len(self._shm)
        self._offset = 0
        self.closed = False

    def allocate(self, nbytes: int) -> memoryview:
        """Bump-allocate a writable page buffer from the mapping."""
        size = len(self._shm)
        if self._offset + nbytes > size:
            raise PageError(
                f"segment {self.name!r} overflow: "
                f"{self._offset} + {nbytes} > {size}")
        view = memoryview(self._shm)[self._offset:self._offset + nbytes]
        self._offset += nbytes
        return view

    def view(self, nbytes: int) -> memoryview:
        """The first *nbytes* of the mapping (reader side)."""
        return memoryview(self._shm)[:nbytes]

    def close(self) -> None:
        """Detach this process's mapping (tolerates live page views:
        their memory is reclaimed when the last reference drops)."""
        if self.closed:
            return
        self.closed = True
        try:
            self._shm.close()
        except BufferError:
            # A page view is still exported somewhere (e.g. a suspended
            # reader generator); the mapping lives until it is collected.
            pass


def pack_records_segment(name: str, schema: Schema, values: Sequence[Any],
                         ) -> SegmentRef:
    """Pack schema *values* into a fresh segment named *name*.

    One sizing step then one ``schema.pack_run`` straight into the
    shared mapping — the only full traversal of the bytes; every
    subsequent reader works on the same physical pages.  A segment
    whose pack raises is unlinked here: its name never reaches the
    caller, so nothing else could.
    """
    total = schema.size_of_run(values)
    if total <= 0:
        return EMPTY_SEGMENT
    segment = SharedPageSegment(name, total, create=True)
    buf = segment.view(total)
    try:
        schema.pack_run(buf, 0, values)
    except BaseException:
        buf.release()
        segment.close()
        unlink_segment(name)
        raise
    buf.release()
    segment.close()
    return SegmentRef(name=name, nbytes=total, count=len(values))


def attach_page_group(ref: SegmentRef, group_name: str | None = None,
                      sanitizer: Sanitizer | None = None) -> PageGroup:
    """Attach *ref* as a single-page read-side :class:`PageGroup`.

    The group's pages alias the shared mapping (zero-copy); the caller
    owns the group, and reclaiming it detaches the mapping.  The segment
    itself stays linked: unlinking is the driver registry's job.
    """
    if ref.name is None or ref.nbytes <= 0:
        return PageGroup(group_name or "shm:empty", page_bytes=1)
    segment = SharedPageSegment(ref.name, ref.nbytes)

    def _detach(_group: PageGroup) -> None:
        # Release the pages' views first so the mapping has no exported
        # pointers left — otherwise ``close`` (and later the handle's
        # finalizer) would trip over BufferError.
        if sanitizer is not None:
            # Consumers attach read-only: prove no write leaked through
            # the shared mapping while the group was mounted (DECA408).
            sanitizer.verify_readonly("segment", ref.name or "")
        for page in group.pages:
            if isinstance(page.data, memoryview):
                try:
                    page.data.release()
                except BufferError:  # a reader still holds a sub-view
                    pass
                page.data = memoryview(b"")
        group.pages.clear()
        segment.close()

    group = PageGroup(group_name or f"shm:{ref.name}",
                      page_bytes=ref.nbytes, on_reclaim=_detach)
    page = Page(0, ref.nbytes, buffer=segment.view(ref.nbytes))
    page.used = ref.nbytes
    group.pages.append(page)
    if sanitizer is not None:
        # Sanitize mode: the mounted view is a read-only borrow of the
        # segment; reclaiming the group must detach it (checked at finish).
        sanitizer.export("segment", ref.name, [page.data], transient=False,
                         group=group, readonly=True)
        group.sanitizer = sanitizer
    return group


def read_segment_records(ref: SegmentRef, plan: ContainerPlan,
                         sanitizer: Sanitizer | None = None,
                         ) -> Iterator[Any]:
    """Decode every record of *ref* in place (attach, scan, detach).
    With *sanitizer* the attach is a read-only borrow, checksummed again
    at the detach (DECA408)."""
    if ref.name is None or ref.count == 0:
        return
    assert plan.schema is not None
    group = attach_page_group(ref, sanitizer=sanitizer)
    values = group.records(plan.schema)
    try:
        yield from plan.decoded(values)
    finally:
        values.close()      # its page view must go before the detach
        group.reclaim()


# -- the one block form across the pipe ---------------------------------------

@dataclass(frozen=True)
class BlockPayload:
    """A block's records as they cross the pipe: the shared pages *ref*
    names, or the bytes *blob*.  Which one, and what the bytes are, is the
    container plan's: see :func:`ship_block`."""

    ref: SegmentRef | None = None
    blob: bytes | None = None

    @property
    def segment(self) -> str | None:
        """The shared segment holding the records, if one was created."""
        return self.ref.name if self.ref is not None else None


def ship_block(plan: ContainerPlan, records: Sequence[Any],
               name: str) -> BlockPayload:
    """*records* in the form *plan* gives them across the pipe.

    A ``DECA_PAGES`` plan packs them into shared pages (a segment named
    *name*, none for zero bytes); any other plan with a schema ships its
    packed bytes (SparkSer's blob, what the sim cache stores); any other
    plan pickles the records.
    """
    if plan.strategy is StorageStrategy.DECA_PAGES:
        assert plan.schema is not None
        return BlockPayload(ref=pack_records_segment(
            name, plan.schema, plan.encoded(records)))
    if plan.schema is not None:
        return BlockPayload(blob=plan.pack(records))
    return BlockPayload(blob=pickle.dumps(records))


def read_block(block: BlockPayload, plan: ContainerPlan,
               sanitizer: Sanitizer | None = None) -> Iterator[Any]:
    """Decode *block* with the *plan* it was shipped under — the one
    reader of shuffle and cache blocks, called where a block is read;
    *sanitizer* checks shared pages stay unwritten."""
    if block.ref is not None:
        return read_segment_records(block.ref, plan, sanitizer)
    assert block.blob is not None
    if plan.schema is not None:
        return plan.records(block.blob)
    return iter(pickle.loads(block.blob))


# -- driver-side lifetime registry ------------------------------------------

#: Names the atexit sweep still has to unlink, across every registry in
#: the process (a test may build several contexts).
_PENDING_UNLINK: set[str] = set()
_JOURNAL_LOCK = threading.Lock()
_ATEXIT_ARMED = False


def manifest_path(pid: int | None = None) -> str:
    """The per-process segment journal under the temp dir.

    The journal mirrors ``_PENDING_UNLINK``: one ``+name`` line when this
    process takes ownership of a segment, one ``-name`` line when it lets
    go, so replaying the file yields every segment the process still
    owns.  ``scripts/check_mp_leaks.py`` replays it to catch the
    *live-creator* orphan — a linked segment whose creating process is
    alive but whose registry entry is gone, so nothing will ever unlink
    it (a dead-pid check alone cannot see this leak).
    """
    return os.path.join(tempfile.gettempdir(),
                        f"repro-mp-manifest-{pid or os.getpid()}.journal")


def _journal(sign: str, name: str) -> None:
    """Apply one ownership change to ``_PENDING_UNLINK`` and append it to
    the journal: O(1) however many segments are live.  Best-effort on the
    file side; the file is removed when the owned set empties, so it
    never outgrows one run's operations."""
    with _JOURNAL_LOCK:
        if sign == "+":
            _PENDING_UNLINK.add(name)
        else:
            _PENDING_UNLINK.discard(name)
        path = manifest_path()
        try:
            if not _PENDING_UNLINK:
                os.unlink(path)
                return
            # One O_APPEND write per line: a reader never sees a line
            # interleaved with another, at worst a torn last one.
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o600)
            try:
                os.write(fd, f"{sign}{name}\n".encode())
            finally:
                os.close(fd)
        except OSError:  # tmpdir trouble must not kill a run
            pass


def _sweep_at_exit() -> None:
    for name in sorted(_PENDING_UNLINK):
        unlink_segment(name)
        _journal("-", name)


def _arm_atexit() -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        atexit.register(_sweep_at_exit)
        _ATEXIT_ARMED = True


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of segment *name*; True if it existed."""
    if _posixshmem is None:  # pragma: no cover
        return False
    try:
        _posixshmem.shm_unlink("/" + name)
    except OSError:  # FileNotFoundError included: already gone
        return False
    return True


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Segment names currently linked under */dev/shm* with *prefix*."""
    if not os.path.isdir(_SHM_DIR):
        return []
    return sorted(entry for entry in os.listdir(_SHM_DIR)
                  if entry.startswith(prefix))


def sweep_segments(prefix: str) -> list[str]:
    """Unlink every linked segment whose name starts with *prefix*.

    This is the driver's recovery path after a worker died mid-task:
    the attempt's segment names are deterministic, so everything the
    dead process created — but never reported — is swept by prefix.
    """
    swept = []
    for name in list_segments(prefix):
        if unlink_segment(name):
            _journal("-", name)
            swept.append(name)
    return swept


class ShmSegmentRegistry:
    """Reference-counted ownership of a run's shared segments.

    A segment is registered with one reference by its first logical
    owner; additional owners ``acquire`` it; ``release`` at zero unlinks
    the segment from the system.  ``on_unlink`` lets the backend discharge
    the segment's bytes from the owning executor's memory arena.
    """

    def __init__(self, on_unlink: Callable[[str, int], None] | None = None,
                 sanitizer: Sanitizer | None = None) -> None:
        # Every refcount mutation runs under this lock: the registry is
        # driver-side today, but a speculative-execution thread touching
        # it concurrently must not lose a count (DECA402's subject).
        self._lock = threading.RLock()
        self._refs: dict[str, int] = {}
        self._nbytes: dict[str, int] = {}
        self.on_unlink = on_unlink
        # Sanitize mode: segment register/unlink transitions are checked
        # against the driver's sanitizer — borrows and attach ordering
        # (None = no-op).
        self.sanitizer = sanitizer
        self.created_total = 0
        self.bytes_total = 0
        _arm_atexit()

    def __len__(self) -> int:
        return len(self._refs)

    @property
    def live_bytes(self) -> int:
        return sum(self._nbytes.values())

    def register(self, ref: SegmentRef) -> None:
        """Adopt *ref* with one reference (idempotent per name)."""
        if ref.name is None:
            return
        with self._lock:
            if ref.name in self._refs:
                raise PageError(f"segment {ref.name!r} registered twice")
            self._refs[ref.name] = 1
            self._nbytes[ref.name] = ref.nbytes
            self.created_total += 1
            self.bytes_total += ref.nbytes
        if self.sanitizer is not None:
            self.sanitizer.create("segment", ref.name)
        _journal("+", ref.name)

    def acquire(self, name: str) -> None:
        with self._lock:
            if name not in self._refs:
                raise PageError(f"segment {name!r} is not registered")
            self._refs[name] += 1

    def release(self, name: str) -> None:
        """Drop one reference; the last one unlinks the segment."""
        with self._lock:
            count = self._refs.get(name)
            if count is None:
                return
            if self.sanitizer is not None:
                self.sanitizer.note_refdec(name, locked=True)
            if count > 1:
                self._refs[name] = count - 1
                return
            del self._refs[name]
            nbytes = self._nbytes.pop(name, 0)
        if self.sanitizer is not None:
            # The last reference is gone: any borrow still live over the
            # segment is a use-after-unlink in the making.
            self.sanitizer.free("segment", name)
        unlink_segment(name)
        _journal("-", name)
        if self.on_unlink is not None:
            self.on_unlink(name, nbytes)

    def release_all(self) -> int:
        """Unlink every registered segment (context teardown)."""
        with self._lock:
            names = sorted(self._refs)
            for name in names:
                self._refs[name] = 1
        for name in names:
            self.release(name)
        return len(names)
