"""Memory pages and page groups (paper §4.3.1).

Deca stores decomposed objects in unified byte arrays with a common fixed
size — *pages*.  A page is logically split into consecutive byte segments,
one per top-level object.  For each data container a *page group* is
allocated, holding the page-info fields of §4.3.1:

* ``pages`` — the array of page references,
* ``end_offset`` — start of the unused part of the last page;

a sequential scan's progress is the reader's own iterator
(:meth:`PageGroup.records`, :meth:`PageGroup.scan`).

No container shares a page group — a container that holds the same
records in another form gets its own plan and its own pages — so a group
has exactly one owner: a cache block, a shuffle writer, a SQL relation or
an shm reader.  When the container's lifetime ends the owner calls
:meth:`PageGroup.reclaim`, and the whole group — and therefore every
object in it — is released at once.  That single release is the paper's
entire memory-management story for millions of records.

Each page is registered with the simulated heap as one PINNED object, so
the GC substrate sees exactly what a real JVM would: a handful of byte
arrays instead of a million records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Iterator

from ..errors import PageError, PageOverflowError, PageReclaimedError
from ..jvm.heap import SimHeap
from ..jvm.objects import AllocationGroup, Lifetime
from ..jvm.sizing import array_bytes
from .layout import RecordSchema, Schema

if TYPE_CHECKING:
    from ..obs.sanitizer import Sanitizer


class Page:
    """One fixed-size byte array.

    The payload is a process-private ``bytearray`` by default; a page can
    instead wrap an externally owned writable *buffer* (a ``memoryview``
    into a POSIX shared-memory segment), which is how Deca
    pages cross process boundaries without a serialization step — the
    accessors below work identically on both.
    """

    __slots__ = ("index", "data", "used")

    def __init__(self, index: int, nbytes: int,
                 buffer: bytearray | memoryview | None = None) -> None:
        if buffer is not None and len(buffer) != nbytes:
            raise PageError(
                f"external page buffer is {len(buffer)} B, "
                f"expected {nbytes} B")
        self.index = index
        self.data: bytearray | memoryview = (
            bytearray(nbytes) if buffer is None else buffer)
        self.used = 0

    @property
    def capacity(self) -> int:
        return len(self.data)

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def __repr__(self) -> str:
        return f"Page(#{self.index}, {self.used}/{self.capacity} B)"


@dataclass(frozen=True)
class PagePointer:
    """A pointer to one record's byte segment inside a page group.

    Shuffle buffers keep arrays of these for sorting/hashing (§4.3.2,
    Fig. 6(b)).
    """

    page_index: int
    offset: int
    length: int


class PageGroup:
    """The pages owned by one data container.

    Appends are sequential; records never span pages (a record larger than
    the page size gets a dedicated oversized page).  The container's one
    owner calls :meth:`reclaim` when its lifetime ends.
    """

    def __init__(self, name: str, page_bytes: int,
                 heap: SimHeap | None = None,
                 on_reclaim: Callable[["PageGroup"], None] | None = None,
                 on_resize: Callable[["PageGroup", int], None] | None = None,
                 ) -> None:
        if page_bytes <= 0:
            raise PageError(f"page size must be positive: {page_bytes}")
        self.name = name
        self.page_bytes = page_bytes
        self.heap = heap
        self.pages: list[Page] = []
        self.reclaimed = False
        self._on_reclaim = on_reclaim
        # Called with the byte delta every time the group's heap
        # footprint changes (+page allocation, -trim); the unified
        # memory arena tracks in-build page groups through this hook.
        self.on_resize = on_resize
        self._alloc_group: AllocationGroup | None = None
        # Sanitize mode: the run's Sanitizer (None = no-op).  The memory
        # manager sets it on every group it creates, so appends reach the
        # sanitizer's lifetime book; the cold tier and the shm layer set
        # it on the groups they drain or mount, so reclamation and drains
        # are checked.
        self.sanitizer: Sanitizer | None = None
        if heap is not None:
            self._alloc_group = heap.new_group(
                f"pages:{name}", Lifetime.PINNED)

    # -- sizes ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def used_bytes(self) -> int:
        """Bytes occupied by record segments."""
        return sum(page.used for page in self.pages)

    @property
    def allocated_bytes(self) -> int:
        """Bytes held from the heap (page payloads, headers included)."""
        return sum(array_bytes(1, page.capacity) for page in self.pages)

    @property
    def end_offset(self) -> int:
        """Start offset of the unused part of the last page (page-info's
        ``endOffset``)."""
        if not self.pages:
            return 0
        return self.pages[-1].used

    # -- appending ---------------------------------------------------------------
    def _tail_page(self, nbytes: int) -> Page:
        """The page the next *nbytes*-byte segment goes to: the last page
        if it has room, else a fresh one (oversized for a record larger
        than the page size).  Nothing is committed to ``page.used``."""
        self._check_alive()
        if self.pages and self.pages[-1].free >= nbytes:
            return self.pages[-1]
        return self._new_page(max(nbytes, self.page_bytes))

    def append_run(self, data: bytes | bytearray | memoryview
                   ) -> PagePointer:
        """Copy *data* in as one dedicated, exactly-sized page.

        The column-major emission mode (§4.3.1 applied per *field*): a
        column's values form one contiguous run, so the run gets its own
        page whose capacity equals its length — typed views
        (``memoryview.cast``) over the run never have to stitch segments
        together, and the heap sees exactly one byte array per column
        run.
        """
        self._check_alive()
        page = self._new_page(max(1, len(data)))
        page.data[0:len(data)] = data
        page.used = len(data)
        return PagePointer(page.index, 0, len(data))

    def append_record(self, schema: Schema, value: Any) -> PagePointer:
        """Pack *value* (per *schema*) directly into the page group.

        ``page.used`` moves only once the pack succeeded, so a value the
        schema rejects leaves no half-written record behind.
        """
        size = schema.size_of(value)
        page = self._tail_page(size)
        offset = page.used
        schema.pack_into(page.data, offset, value)
        page.used = offset + size
        if self.sanitizer is not None:
            self.sanitizer.note_append(
                self.name, getattr(schema, "name", type(schema).__name__),
                size)
        return PagePointer(page.index, offset, size)

    def append_records(self, schema: Schema, values: Iterable[Any]) -> int:
        """Pack every value of *values* (per *schema*); returns the count.

        The bulk build of a sealed container (§4.3.1), a page at a
        time: each value is sized once (a fixed-size schema needs no
        sizing), the values that fit the tail page form a run, and the
        first that does not ends it.  One ``schema.pack_run`` writes the
        run, then ``page.used`` is committed and the sanitizer told its
        record sizes.  Pages are opened exactly where
        :meth:`append_record` would open them, so the bytes, the heap
        allocations and the ``on_resize`` deltas are those of a
        per-record loop.  A run with a rejected value is appended again
        record by record, so the records before it stay and it raises
        its error, leaving nothing; a value its schema cannot size ends
        the run before it the same way.
        """
        fixed, size_of = schema.fixed_size, schema.size_of
        count, free = 0, 0
        page: Page | None = None
        run: list[Any] = []
        sizes: list[int] = []
        for value in values:
            try:
                size = fixed or size_of(value)
            except Exception:
                self._commit_run(schema, page, run, sizes)
                raise
            if page is None or size > free:
                count += self._commit_run(schema, page, run, sizes)
                run, sizes = [], []
                page = self._tail_page(size)
                free = page.free
            run.append(value)
            sizes.append(size)
            free -= size
        return count + self._commit_run(schema, page, run, sizes)

    def _commit_run(self, schema: Schema, page: Page | None,
                    run: list[Any], sizes: list[int]) -> int:
        """Pack *run* (its values' *sizes*) at the end of *page* and
        commit it; returns its length."""
        if page is None or not run:
            return 0
        try:
            page.used = schema.pack_run(page.data, page.used, run)
        except Exception:
            for value in run:
                self.append_record(schema, value)
            raise
        if self.sanitizer is not None:
            name = getattr(schema, "name", type(schema).__name__)
            for size, records in Counter(sizes).items():
                self.sanitizer.note_append(self.name, name, size, records)
        return len(run)

    def _new_page(self, nbytes: int) -> Page:
        page = Page(len(self.pages), nbytes)
        if self.heap is not None and self._alloc_group is not None:
            # One byte array object on the simulated heap.
            self.heap.allocate(self._alloc_group, 1, array_bytes(1, nbytes))
        self.pages.append(page)
        if self.on_resize is not None:
            self.on_resize(self, array_bytes(1, nbytes))
        return page

    def adopt_page(self, buffer: bytearray | memoryview,
                   used: int | None = None) -> Page:
        """Mount an externally owned *buffer* as one fully-written page.

        The zero-copy promotion path of the mmap cold tier
        (:mod:`repro.memory.tier`): the page aliases the tier extent the
        way shared-memory pages alias their segment, so swapping a group
        back in moves no bytes.  The page is charged to the heap exactly
        like an allocated one — residency accounting is identical across
        tiers, only the data plane differs.
        """
        self._check_alive()
        page = Page(len(self.pages), len(buffer), buffer=buffer)
        page.used = len(buffer) if used is None else used
        if self.heap is not None and self._alloc_group is not None:
            self.heap.allocate(self._alloc_group, 1,
                               array_bytes(1, page.capacity))
        self.pages.append(page)
        if self.on_resize is not None:
            self.on_resize(self, array_bytes(1, page.capacity))
        return page

    def drain(self) -> Iterator[bytes]:
        """Yield each page's used bytes as one copy, releasing the source
        page's heap charge as soon as the caller has consumed it.

        The heap-tier swap-out path: copying every page *before*
        reclaiming the group doubles the block's peak footprint, so the
        drain interleaves copy and release — at most one page is
        double-buffered at a time.  The group is reclaimed when the
        iterator is exhausted.  (``on_resize`` is deliberately not
        fired per page: the swap-out discards the group's arena entry
        wholesale right after.)
        """
        self._check_alive()
        for page in list(self.pages):
            if self.sanitizer is not None:
                self.sanitizer.note_drain_copy(self.name, page.used)
            yield bytes(memoryview(page.data)[:page.used])
            # The caller holds (and has accounted) the copy; the source
            # page's heap charge can go.
            if self._alloc_group is not None and not self._alloc_group.freed:
                self._alloc_group.shrink(array_bytes(1, page.capacity))
        self.reclaim()

    def swap_chunks(self) -> list[memoryview]:
        """The group's used bytes as per-page views, ready for a cold-tier
        ``swap_out``.

        The views alias the live page buffers — no copy happens here; the
        mmap tier writes them straight into its extent file.  Callers must
        reclaim the group (or otherwise stop mutating it) once the swap
        completes.
        """
        self._check_alive()
        return [memoryview(page.data)[:page.used] for page in self.pages]

    def trim(self) -> int:
        """Shrink the last page's byte array to its used size.

        A sealed container (a fully-built cache block) never appends again,
        so the unused tail of its last page is pure waste — the "large
        unused memory spaces" the paper warns oversized pages cause (§2.3).
        Returns the heap bytes given back.
        """
        self._check_alive()
        if not self.pages:
            return 0
        page = self.pages[-1]
        if page.used == page.capacity:
            return 0
        before = array_bytes(1, page.capacity)
        page.data = page.data[:page.used]
        after = array_bytes(1, page.capacity)
        saved = before - after
        if saved and self._alloc_group is not None:
            self._alloc_group.shrink(saved)
        if saved and self.on_resize is not None:
            self.on_resize(self, -saved)
        return saved

    # -- reading -----------------------------------------------------------------
    def page(self, index: int) -> Page:
        self._check_alive()
        try:
            return self.pages[index]
        except IndexError:
            raise PageError(
                f"page group {self.name!r} has no page #{index}") from None

    def read(self, pointer: PagePointer
             ) -> tuple[bytearray | memoryview, int]:
        """Resolve *pointer* to ``(buffer, offset)``."""
        page = self.page(pointer.page_index)
        if pointer.offset + pointer.length > page.used:
            raise PageOverflowError(
                f"pointer {pointer} reads past the used bytes of {page}")
        return page.data, pointer.offset

    def scan(self, schema: RecordSchema
             ) -> Iterator[tuple[bytearray | memoryview, int]]:
        """Sequentially yield ``(buffer, offset)`` for every record.

        Walks the pages exactly as the transformed task loop of Appendix B
        walks a decomposed cache block, advancing by each record's
        data-size.
        """
        self._check_alive()
        for page in self.pages:
            offset = 0
            while offset < page.used:
                yield page.data, offset
                if schema.fixed_size is not None:
                    next_offset = offset + schema.fixed_size
                else:
                    next_offset = schema.skip(page.data, offset)
                if next_offset <= offset:
                    raise PageError(
                        f"zero-size record at offset {offset} in "
                        f"{self.name!r}; scan cannot advance")
                offset = next_offset

    def records(self, schema: Schema) -> Generator[Any, None, None]:
        """Sequentially decode every record (materializing values).

        Each page is one ``schema.iter_unpack`` over a view of its used
        bytes; the view is released when the page is exhausted or the
        generator is closed, so no export outlives the scan.
        """
        self._check_alive()
        for page in self.pages:
            if schema.fixed_size and page.used % schema.fixed_size:
                raise PageError(
                    f"{page} of {self.name!r} does not hold a whole number "
                    f"of {schema.fixed_size}-byte records")
            view = memoryview(page.data)[:page.used]
            values = schema.iter_unpack(view)
            try:
                yield from values
            finally:
                del values      # the struct iterator exports the view
                view.release()

    # -- lifetime ------------------------------------------------------------------
    def new_page_info(self) -> SimpleNamespace:
        """A handle whose ``close()`` reclaims the group.

        Not §4.3.3's counted page-info: a group has one owner, which
        calls :meth:`reclaim`.  Only the shm probe in
        ``benchmarks/perf/probes.py`` still releases a group through
        this; it goes when that probe calls :meth:`reclaim`.
        """
        return SimpleNamespace(close=self.reclaim)

    def reclaim(self) -> None:
        """Release every page at once (the container's lifetime ended)."""
        if self.reclaimed:
            return
        self.reclaimed = True
        if self.heap is not None and self._alloc_group is not None:
            self.heap.free_group(self._alloc_group)
        # The callback runs while ``pages`` is still populated so a
        # detach hook (repro.exec.shm) can release the page buffers it
        # mounted before the list is dropped.
        if self._on_reclaim is not None:
            self._on_reclaim(self)
        # Adopted zero-copy buffers (tier extents, shm segments) must not
        # outlive the group: release them so a straggling reader fails
        # loudly with ValueError instead of silently reading whatever the
        # backing bytes hold next.  A sub-view export keeps the buffer
        # alive (release raises BufferError) — that escape is what the
        # sanitizer reports at finish.
        for page in self.pages:
            if isinstance(page.data, memoryview):
                try:
                    page.data.release()
                except BufferError:
                    pass
        self.pages.clear()
        if self.sanitizer is not None:
            self.sanitizer.note_group_reclaim(self)

    def _check_alive(self) -> None:
        if self.reclaimed:
            raise PageReclaimedError(
                f"page group {self.name!r} was already reclaimed")

    def __repr__(self) -> str:
        state = "reclaimed" if self.reclaimed else "live"
        return (f"PageGroup({self.name!r}, pages={self.page_count}, "
                f"used={self.used_bytes} B, {state})")

