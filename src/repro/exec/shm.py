"""Shared-memory Deca page segments (the mp backend's data plane).

A decomposed container that must cross a process boundary — a shuffle map
output or a cached block under the mp backend — is packed once into a
``multiprocessing.shared_memory`` segment and read **in place** by every
consumer process through schema accessors over a ``memoryview``.  No
pickle, no copy of the byte stream: the segment *is* the Deca page group,
exactly the property §4.3 claims for decomposed data.

Lifecycle rules (mirroring page-info reference counting, §4.3.3):

* the **worker that runs the producing task creates** the segment, packs
  the records and immediately detaches; it also unregisters the segment
  from the stdlib ``resource_tracker`` (which would otherwise unlink it
  when the transient worker exits — the owner of a segment's lifetime is
  the *driver*, not whichever process happened to create it);
* the **driver registers** the segment in a :class:`ShmSegmentRegistry`
  with a reference count; consumers attach/detach without touching the
  count, while logical owners (a shuffle's blocks, a cached RDD) hold
  references — the segment is unlinked when the last one is released;
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
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..core.plan import ContainerPlan
from ..errors import PageError
from ..memory.layout import Schema
from ..memory.page import Page, PageGroup
from ..memory.provenance import ProvenanceLedger
from ..obs.vclock import VClockChecker

try:  # pragma: no cover - the stdlib ships both on every target platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: Every segment of every run starts with this, so the leak guard (and the
#: orphan sweep after a worker death) can recognise ours by name alone.
SEGMENT_PREFIX = "repro-mp"

#: Linux mounts POSIX shared memory here; the sweep helpers are no-ops on
#: platforms without it.
_SHM_DIR = "/dev/shm"


def shm_available() -> bool:
    """Whether this platform can back Deca pages with shared memory."""
    return shared_memory is not None


def _untrack(shm: "shared_memory.SharedMemory") -> None:
    """Opt this handle out of the stdlib resource tracker.

    Python 3.11 registers the segment with the tracker on *every*
    construction — attach included — so without this, the first process
    to exit would have the tracker unlink a segment other processes (and
    the driver's registry) still own.
    """
    if resource_tracker is None:
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


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
    drops this process's mapping only; ``unlink`` removes the segment
    from the system (driver-side, via the registry).
    """

    def __init__(self, name: str, nbytes: int = 0,
                 create: bool = False) -> None:
        if shared_memory is None:  # pragma: no cover
            raise PageError("shared memory is unavailable on this platform")
        if create and nbytes <= 0:
            raise PageError(f"segment {name!r} needs a positive size")
        self.name = name
        self.nbytes = nbytes
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=nbytes if create else 0)
        _untrack(self._shm)
        if not create and nbytes == 0:
            # Attach side: trust the mapping (it is page-rounded, so the
            # logical byte count still comes from the SegmentRef).
            self.nbytes = self._shm.size
        self._offset = 0
        self.closed = False

    def allocate(self, nbytes: int) -> memoryview:
        """Bump-allocate a writable page buffer from the mapping."""
        if self._offset + nbytes > self._shm.size:
            raise PageError(
                f"segment {self.name!r} overflow: "
                f"{self._offset} + {nbytes} > {self._shm.size}")
        view = self._shm.buf[self._offset:self._offset + nbytes]
        self._offset += nbytes
        return view

    def view(self, nbytes: int) -> memoryview:
        """The first *nbytes* of the mapping (reader side)."""
        return self._shm.buf[:nbytes]

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

    def unlink(self) -> None:
        if resource_tracker is not None:
            # ``SharedMemory.unlink`` sends a tracker *unregister*; the
            # constructor untracked this handle, so re-register first to
            # keep the tracker's books balanced (else it logs KeyErrors).
            try:
                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:
                pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


def pack_records_segment(name: str, schema: Schema, values: list,
                         ) -> SegmentRef:
    """Pack encoded *values* into a fresh segment named *name*.

    One sizing pass then one in-place pack straight into the shared
    mapping — the only full traversal of the bytes; every subsequent
    reader works on the same physical pages.
    """
    if not values:
        return EMPTY_SEGMENT
    total = sum(schema.size_of(value) for value in values)
    if total <= 0:
        return EMPTY_SEGMENT
    segment = SharedPageSegment(name, total, create=True)
    try:
        buf = segment.view(total)
        offset = 0
        for value in values:
            offset = schema.pack_into(buf, offset, value)
        del buf
    finally:
        segment.close()
    return SegmentRef(name=name, nbytes=total, count=len(values))


def attach_page_group(ref: SegmentRef, group_name: str | None = None,
                      ledger: ProvenanceLedger | None = None,
                      vclock: VClockChecker | None = None) -> PageGroup:
    """Attach *ref* as a single-page read-side :class:`PageGroup`.

    The group's pages alias the shared mapping (zero-copy); reclaiming
    the group — by refcount through its page-infos, like any Deca
    container — detaches the mapping.  The segment itself stays linked:
    unlinking is the driver registry's job.
    """
    if ref.name is None or ref.nbytes <= 0:
        return PageGroup(group_name or "shm:empty", page_bytes=1)
    segment = SharedPageSegment(ref.name, ref.nbytes)

    def _detach(_group: PageGroup) -> None:
        # Release the pages' views first so the mapping has no exported
        # pointers left — otherwise ``close`` (and later the handle's
        # finalizer) would trip over BufferError.
        if vclock is not None:
            # Consumers attach read-only: prove no write leaked through
            # the shared mapping while the group was mounted (DECA408).
            vclock.verify_readonly("segment", ref.name or "")
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
    if ledger is not None:
        # Sanitize mode: the mounted view is a borrow of the segment;
        # reclaiming the group must detach it (checked at finish).
        ledger.borrow("segment", ref.name, view=page.data, transient=False)
        group.ledger = ledger
    if vclock is not None:
        vclock.note_attach("segment", ref.name)
        vclock.adopt_readonly("segment", ref.name, page.data)
    return group


def read_segment_records(ref: SegmentRef, plan: ContainerPlan,
                         ) -> Iterator[Any]:
    """Decode every record of *ref* in place (attach, scan, detach) —
    the one reader of shared blocks, shuffle and cache, in the driver
    and in every worker."""
    if ref.name is None or ref.count == 0:
        return
    assert plan.schema is not None
    group = attach_page_group(ref)
    info = group.new_page_info()
    values = group.records(plan.schema)
    try:
        yield from plan.decoded(values)
    finally:
        values.close()      # its page view must go before the detach
        info.close()


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
    if shared_memory is None:  # pragma: no cover
        return False
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except OSError:
        return False
    # No _untrack here: ``unlink()`` below sends its own tracker
    # unregister, which balances the register this attach just made.
    try:
        shm.close()
    except BufferError:  # pragma: no cover - fresh attach has no views
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
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

    The registry is the mp analogue of page-info reference counting: a
    segment is registered with one reference by its first logical owner;
    additional owners ``acquire`` it; ``release`` at zero unlinks the
    segment from the system.  ``on_unlink`` lets the backend discharge
    the segment's bytes from the owning executor's memory arena.
    """

    def __init__(self, on_unlink: Callable[[str, int], None] | None = None,
                 ledger: ProvenanceLedger | None = None,
                 vclock: VClockChecker | None = None) -> None:
        # Every refcount mutation runs under this lock: the registry is
        # driver-side today, but a speculative-execution thread touching
        # it concurrently must not lose a count (DECA402's subject).
        self._lock = threading.RLock()
        self._refs: dict[str, int] = {}
        self._nbytes: dict[str, int] = {}
        self.on_unlink = on_unlink
        # Sanitize mode: segment register/unlink transitions are checked
        # against the driver-side provenance ledger (None = no-op).
        self.ledger = ledger
        # Race sanitizer: unlink ordering vs attaches (None = off).
        self.vclock = vclock
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
        if self.ledger is not None:
            self.ledger.note_alloc("segment", ref.name)
        if self.vclock is not None:
            self.vclock.note_create("segment", ref.name)
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
            if self.vclock is not None:
                self.vclock.note_refdec(name, locked=True)
            if count > 1:
                self._refs[name] = count - 1
                return
            del self._refs[name]
            nbytes = self._nbytes.pop(name, 0)
        if self.ledger is not None:
            # The last reference is gone: any borrow still live over the
            # segment is a use-after-unlink in the making.
            self.ledger.note_free("segment", name)
        unlink_segment(name)
        if self.vclock is not None:
            self.vclock.note_reclaim("segment", name)
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
