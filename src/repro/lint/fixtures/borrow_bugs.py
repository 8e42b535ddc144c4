"""Seven seeded zero-copy lifetime bugs, one per DECA30x rule.

Every function here is WRONG ON PURPOSE.  Each exhibits exactly one
borrow violation: the static checker (:mod:`repro.lint.borrow`) must
report precisely that rule against it, and when driven against a live
``PageStoreTier`` / ``ShmSegmentRegistry`` / ``ProvenanceLedger`` by
``python -m repro.bench sanitize``, the runtime sanitizer must record
the matching violation slug.

The drivers (:mod:`repro.lint.fixtures.drivers`) own all setup —
pre-populating extents, creating segments, wiring ledgers — so each
fixture body is the minimal buggy interaction.
"""

from __future__ import annotations

from typing import Any

from ...exec.shm import SharedPageSegment

#: Module-level escape sink: a handle appended here observably outlives
#: the function (and keeps the buffer referenced at runtime).
SINK: list[Any] = []


def reset() -> None:
    """Drop every escaped handle between harness runs."""
    for item in SINK:
        if isinstance(item, memoryview):
            try:
                item.release()
            except BufferError:
                pass
    SINK.clear()


def bug_use_after_free_extent(tier: Any) -> memoryview:
    """DECA301: the extent dies while an exported view is still borrowed.

    The harness swap_outs a page group under the name ``fx-uaf`` first;
    dropping it recycles the mmap bytes under the returned reader.
    """
    views = tier.views("fx-uaf")
    first = views[0]
    tier.drop("fx-uaf")
    return first


def bug_use_after_unlink_segment(registry: Any, ledger: Any,
                                 name: str) -> memoryview:
    """DECA302: the segment is released/unlinked under a live view.

    The harness created the segment and registered it with refcount 1,
    so this release drops it to zero and unlinks the backing file while
    the exported view is still attached.
    """
    segment = SharedPageSegment(name, 4096)
    view = segment.view(64)
    ledger.borrow("segment", name, view=view, nbytes=64, transient=False)
    registry.release(name)
    SINK.append(segment)   # keep the mapping alive under the view
    return view


def bug_double_free(tier: Any) -> None:
    """DECA303: the same extent is freed twice on one path."""
    tier.drop("fx-df")
    tier.drop("fx-df")


def bug_view_escapes_adoption(tier: Any, group: Any, ledger: Any) -> None:
    """DECA304: a second handle outlives the page group's adoption.

    After ``adopt_page`` the group owns the view's lifetime; the slice
    stashed in ``SINK`` keeps the underlying extent buffer exported
    behind the refcount protocol's back — reclaim releases the adopted
    parents, but the escaped slice still aliases the recycled bytes.
    """
    views = tier.swap_in("fx-esc")
    for view in views:
        group.adopt_page(view)
    keep = views[0][:4]
    ledger.borrow("extent", "fx-esc", view=keep, transient=False)
    SINK.append(keep)
    ledger.retain("extent", "fx-esc", group=group.name)
    group.reclaim()


def bug_remap_invalidates_export(tier: Any, ledger: Any,
                                 scratch: Any) -> list[memoryview]:
    """DECA305: a grow path resizes the mapping under exported views.

    The retire-on-BufferError protocol (``tier._retired``) is skipped:
    the mapping is replaced in place, so every exported view dangles.
    """
    views = tier.views("fx-remap")
    scratch.resize(8192)
    ledger.note_remap("extent", ["fx-remap"], retired=False)
    return views


def bug_leak_at_finish(tier: Any, stop_early: bool) -> Any:
    """DECA306: a teardown path returns before its sibling's cleanup.

    With ``stop_early`` the exported views are never released and the
    extent never dropped — the borrows leak past the lifetime boundary
    that the fall-through path respects.
    """
    views = tier.views("fx-leak")
    if stop_early:
        return views
    del views
    tier.drop("fx-leak")
    return None


def bug_unreleased_drain_copy(group: Any, ledger: Any) -> list[bytes]:
    """DECA308: the drain's transient copies are never shrunk or freed.

    ``drain()`` charges a double-buffer copy per page; nothing here ever
    calls ``shrink()``/``free_group()`` (or ``release_drain``), so the
    footprint outlives the swap it paid for.
    """
    chunks: list[bytes] = []
    for chunk in group.drain():
        chunks.append(chunk)
    return chunks
