"""The cold tier: extents, free-list reuse, crash safety, one swap path.

Covers :mod:`repro.memory.tier` directly — byte-exact round trips,
zero-copy promotion views, extent conservation under random
swap/promote/drop scripts, and the startup truncation of tier files a
killed run left behind — and both :class:`~repro.memory.tier.ColdTier`
implementations driven through a cache block and a SQL relation.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.logistic_regression import labeled_point_udt_info
from repro.config import MB, DecaConfig, ExecutionMode
from repro.data import rankings_table
from repro.errors import PageError
from repro.memory.tier import (
    PageStoreTier,
    TIER_FILE_PREFIX,
    default_tier_path,
)
from repro.obs import Tracer
from repro.spark import DecaContext
from repro.sql import SqlEngine, select
from repro.sql.schema import RANKINGS_SCHEMA


@pytest.fixture
def tier(tmp_path):
    store = PageStoreTier(str(tmp_path / "tier.bin"))
    yield store
    store.close()


class TestSwapRoundtrip:
    def test_bytes_round_trip_exactly(self, tier):
        chunks = [b"alpha" * 100, b"beta" * 50, b"g"]
        moved = tier.swap_out("g1", chunks)
        assert moved == sum(len(c) for c in chunks)
        views = tier.swap_in("g1")
        assert [bytes(v) for v in views] == chunks

    def test_views_are_zero_copy_aliases(self, tier):
        tier.swap_out("g1", [bytearray(b"xxxx")])
        view = tier.views("g1")[0]
        view[0:2] = b"ab"
        assert bytes(tier.views("g1")[0]) == b"abxx"

    def test_memoryview_chunks_write_without_bytes_objects(self, tier):
        backing = bytearray(b"0123456789")
        tier.swap_out("g1", [memoryview(backing)[2:6]])
        assert bytes(tier.views("g1")[0]) == b"2345"

    def test_duplicate_extent_name_rejected(self, tier):
        tier.swap_out("g1", [b"x"])
        with pytest.raises(PageError):
            tier.swap_out("g1", [b"y"])

    def test_missing_extent_raises(self, tier):
        with pytest.raises(PageError):
            tier.views("nope")

    def test_swap_in_retains_extent(self, tier):
        tier.swap_out("g1", [b"abc"])
        tier.swap_in("g1")
        assert tier.has("g1")
        assert tier.stats.swap_in_count == 1

    def test_drop_is_idempotent(self, tier):
        tier.swap_out("g1", [b"abc"])
        assert tier.drop("g1") == 3
        assert tier.drop("g1") == 0
        assert not tier.has("g1")


class TestExtentAllocation:
    def test_freed_extents_are_reused(self, tier):
        tier.swap_out("g1", [b"a" * 100])
        offset = tier.extent_of("g1").offset
        tier.drop("g1")
        tier.swap_out("g2", [b"b" * 100])
        assert tier.extent_of("g2").offset == offset

    def test_neighbouring_holes_coalesce(self, tier):
        for i in range(3):
            tier.swap_out(f"g{i}", [bytes([i]) * 5000])
        # Free the middle then the first: the two holes must merge so a
        # larger extent fits where the small ones were.
        first = tier.extent_of("g0")
        tier.drop("g1")
        tier.drop("g0")
        tier.swap_out("big", [b"x" * 9000])
        assert tier.extent_of("big").offset == first.offset

    def test_growth_preserves_exported_views(self, tier):
        tier.swap_out("g1", [b"keep" * 100])
        view = tier.swap_in("g1")[0]
        # Force growth past the first mapping.
        tier.swap_out("g2", [b"z" * (2 << 20)])
        assert bytes(view[:4]) == b"keep"
        assert bytes(tier.views("g1")[0][:4]) == b"keep"

    def test_file_bytes_track_growth(self, tier):
        tier.swap_out("g1", [b"x"])
        assert tier.file_bytes == os.path.getsize(tier.path)
        tier.swap_out("g2", [b"y" * (4 << 20)])
        assert tier.file_bytes == os.path.getsize(tier.path)


class TestLifecycle:
    def test_close_unlinks_file(self, tmp_path):
        store = PageStoreTier(str(tmp_path / "t.bin"))
        store.swap_out("g", [b"x"])
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_close_is_idempotent(self, tmp_path):
        store = PageStoreTier(str(tmp_path / "t.bin"))
        store.close()
        store.close()
        with pytest.raises(PageError):
            store.swap_out("g", [b"x"])

    def test_default_path_embeds_pid(self):
        path = default_tier_path("e0")
        name = os.path.basename(path)
        assert name.startswith(f"{TIER_FILE_PREFIX}-{os.getpid()}-")
        assert name.endswith("-e0.bin")

    def test_leftover_file_truncated_on_startup(self, tmp_path):
        """Crash safety: a tier file a killed run left behind holds
        unrecoverable garbage (its extent directory died with the
        process) and must be reclaimed, not mapped."""
        path = tmp_path / "stale.bin"
        path.write_bytes(b"stale-extent-bytes" * 1000)
        store = PageStoreTier(str(path))
        try:
            assert os.path.getsize(path) == 0
            assert store.stats.truncated_bytes == 18_000
            assert store.file_bytes == 0
            store.swap_out("g", [b"fresh"])
            assert bytes(store.views("g")[0]) == b"fresh"
        finally:
            store.close()

    def test_truncation_is_traced(self, tmp_path):
        path = tmp_path / "stale.bin"
        path.write_bytes(b"x" * 100)
        tracer = Tracer()
        store = PageStoreTier(str(path), tracer=tracer)
        try:
            events = [e for e in tracer.events if e.name == "tier:truncate"]
            assert len(events) == 1
            assert events[0].args["reclaimed_bytes"] == 100
        finally:
            store.close()

    def test_spill_accounting(self, tier):
        tier.note_spill(1000)
        tier.note_spill(500)
        assert tier.stats.spill_count == 2
        assert tier.stats.spill_bytes == 1500


# -- extent conservation under random scripts --------------------------------

@st.composite
def tier_script(draw):
    """A random swap_out / swap_in / drop sequence over a few groups."""
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["out", "in", "drop"]),
            st.integers(0, 5),                      # group index
            st.lists(st.integers(1, 60_000),        # chunk sizes
                     min_size=1, max_size=4),
        ),
        min_size=1, max_size=30))
    return ops


@given(tier_script())
@settings(max_examples=60, deadline=None)
def test_extents_conserve_bytes_and_never_overlap(tmp_path_factory, script):
    tier = PageStoreTier(
        str(tmp_path_factory.mktemp("tier") / "prop.bin"))
    try:
        payloads: dict[str, list[bytes]] = {}
        for op, idx, sizes in script:
            name = f"g{idx}"
            if op == "out" and name not in payloads:
                chunks = [bytes([idx + 1]) * n for n in sizes]
                tier.swap_out(name, chunks)
                payloads[name] = chunks
            elif op == "in" and name in payloads:
                views = tier.swap_in(name)
                assert [bytes(v) for v in views] == payloads[name]
            elif op == "drop":
                tier.drop(name)
                payloads.pop(name, None)

            # Conservation: every file byte is either reserved by a
            # live extent or on the free list — never both, never lost.
            assert tier.live_bytes + tier.free_bytes == tier.file_bytes

            # No two extents overlap, and none runs past the file.
            spans = sorted(
                (e.offset, e.offset + e.length)
                for e in (tier.extent_of(n) for n in payloads))
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start
            if spans:
                assert spans[-1][1] <= tier.file_bytes

        # Every surviving payload still reads back byte-exact.
        for name, chunks in payloads.items():
            assert [bytes(v) for v in tier.views(name)] == chunks
    finally:
        tier.close()


# -- one demote/promote path for cache blocks and SQL relations --------------

def _no_file_yet(tier):
    """Nothing has opened a tier file: the snapshot reports nothing."""
    return tier.snapshot() == {} and getattr(tier, "extents", None) is None


@pytest.mark.parametrize("cold_tier", ["heap", "mmap"])
def test_cache_blocks_and_sql_relations_share_one_swap_path(cold_tier):
    """A Deca cache block and a columnar SQL relation go through the same
    page-group demote/promote of the same tier: the heap tier counts
    copies, charges simulated disk time and keeps no file; the mmap tier
    copies nothing, opens its file on the first demote and moves no byte
    on a re-demote of promoted pages."""
    heap = cold_tier == "heap"
    # A cache block: demote, stream, promote, re-demote, spill, drop.
    ctx = DecaContext(DecaConfig(mode=ExecutionMode.DECA, heap_bytes=32 * MB,
                                 num_executors=1, tasks_per_executor=2,
                                 cold_tier=cold_tier))
    data = [(1.0, tuple(float(d) for d in range(10))) for _ in range(400)]
    rdd = ctx.parallelize(data, 2).map(
        lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
    rdd.count()
    executor = ctx.executors[0]
    tier, store = executor.cold_tier, executor.cache
    key = next(iter(store.blocks))
    name = store._cold_name(store.blocks[key])
    used = store.blocks[key].page_group.used_bytes
    assert _no_file_yet(tier)
    store.swap_out(key)
    assert tier.holds(name)
    assert len(list(store.read_records(key))) \
        == store.blocks[key].record_count
    assert not store.swap_in(key).on_disk
    store.swap_out(key)
    tier.spill(1000)
    rdd.unpersist()
    assert not tier.holds(name)
    copies = executor.serializer.swap_copy_bytes_total
    if heap:
        # Drain, copy back, drain again: three passes of counted copies.
        assert copies == 3 * used
        assert executor.tier_ticks == 0
        assert any(e.category == "io.disk" and e.pid == executor.trace_pid
                   for e in executor.tracer.events)
        assert tier.snapshot() == {}
    else:
        stats = tier.snapshot()
        assert copies == 0
        # The re-demote moved nothing: the promoted pages aliased the
        # extent the first demote wrote.
        assert stats["bytes_moved_out"] == stats["bytes_moved_in"] == used
        assert stats["spill_bytes"] == 1000 and stats["extents_live"] == 0
        assert executor.tier_ticks > 0
    assert sorted(rdd.collect()) == sorted(data)
    ctx.finish()

    # A SQL relation: demote, promote (by query), re-demote, drop.
    engine = SqlEngine(DecaConfig(heap_bytes=64 * MB, cold_tier=cold_tier))
    engine.register_table("rankings", RANKINGS_SCHEMA, rankings_table(200))
    query = select(["pageURL", "pageRank"], "rankings",
                   where=("pageRank", ">", 100))
    resident = engine.run(query).rows
    assert _no_file_yet(engine.cold_tier)
    moved = engine.demote_table("rankings")
    assert moved > 0 and engine.cached_bytes == 0
    assert engine.run(query).rows == resident       # promoted back
    redemoted = engine.demote_table("rankings")
    engine.uncache_table("rankings")
    assert not engine.cold_tier.holds("sql:rankings")
    if heap:
        assert redemoted == moved
        assert engine.swap_copy_bytes == 3 * moved
        assert engine.tier_stats == {}
    else:
        assert redemoted == 0 and engine.swap_copy_bytes == 0
        assert engine.tier_stats["bytes_moved_out"] == moved
    engine.close()
