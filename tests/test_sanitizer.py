"""The runtime sanitizer's borrow half: its triggers, engine wiring, and
the zero-copy regression scenarios the DECA30x rules exist for.

Includes the regression tests the engine is hardened against:

* dangling promoted views — CacheStore swap/drop paths must release a
  superseded promotion blob *before* the backing extent is freed (the
  pre-fix behaviour left the view aliasing recycled bytes);
* grow-by-remap — views exported before a tier file growth must stay
  valid and byte-identical after it, including under re-entrant swap
  pressure (interleaved swap-outs forcing repeated remaps).
"""

import pytest

from repro.config import MB, DecaConfig, ExecutionMode
from repro.errors import SanitizerError
from repro.memory.page import PageGroup
from repro.memory.tier import PageStoreTier
from repro.obs.sanitizer import BORROW_SLUGS, POISON_BYTE, RACE_SLUGS, Sanitizer
from repro.spark import DecaContext
from repro.spark.cache import StorageStrategy
from repro.apps.logistic_regression import labeled_point_udt_info


def make_ctx(mode, **overrides):
    defaults = dict(mode=mode, heap_bytes=32 * MB, num_executors=1,
                    tasks_per_executor=2, execution_backend="sim",
                    cold_tier="mmap", sanitize=True)
    defaults.update(overrides)
    return DecaContext(DecaConfig(**defaults))


def cache_one_rdd(ctx, records=400):
    data = [(1.0, tuple(float(d) for d in range(10)))
            for _ in range(records)]
    rdd = ctx.parallelize(data, 2).map(
        lambda r: r, udt_info=labeled_point_udt_info(10)).cache()
    rdd.count()
    return rdd, data


class TestLedgerTriggers:
    """Each DECA30x violation slug has a direct sanitizer trigger."""

    def test_free_under_live_borrow_extent(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        sanitizer.free("extent", "g")
        assert sanitizer.counters["use-after-free-extent"] == 1
        assert view.nbytes == 16  # trigger fired, view untouched

    def test_free_under_live_borrow_segment(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("segment", "s", [view])
        sanitizer.free("segment", "s")
        assert sanitizer.counters["use-after-unlink-segment"] == 1

    def test_released_borrow_does_not_trip_free(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        view.release()
        sanitizer.free("extent", "g")
        assert sanitizer.counters["use-after-free-extent"] == 0

    def test_double_free(self):
        sanitizer = Sanitizer()
        sanitizer.free("extent", "g")
        sanitizer.free("extent", "g")
        assert sanitizer.counters["double-free"] == 1

    def test_realloc_resets_double_free(self):
        sanitizer = Sanitizer()
        sanitizer.free("extent", "g")
        sanitizer.create("extent", "g")
        sanitizer.free("extent", "g")
        assert sanitizer.counters["double-free"] == 0

    def test_unretired_remap_under_live_borrow(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        sanitizer.note_remap("extent", ["g"], retired=False)
        assert sanitizer.counters["remap-invalidates-export"] == 1

    def test_retired_remap_is_clean(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        sanitizer.note_remap("extent", ["g"], retired=True)
        assert sanitizer.counters["remap-invalidates-export"] == 0

    def test_escaped_adoption_at_finish(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        group = PageGroup("pg", page_bytes=16)
        sanitizer.export("extent", "g", [view], group=group)
        sanitizer.note_group_reclaim(group)
        sanitizer.check_finish()
        assert sanitizer.counters["view-escapes-adoption"] == 1

    def test_adopted_view_is_not_a_leak_before_its_reclaim(self):
        sanitizer = Sanitizer()
        view = memoryview(bytearray(16))
        group = PageGroup("pg", page_bytes=16)
        sanitizer.export("extent", "g", [view], group=group)
        assert sanitizer.check_finish()["violations"] == 0

    def test_leak_at_finish(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        sanitizer.check_finish()
        assert sanitizer.counters["leak-at-finish"] == 1
        view.release()

    def test_released_transient_is_not_a_leak(self):
        sanitizer = Sanitizer()
        buf = bytearray(16)
        view = memoryview(buf)
        sanitizer.export("extent", "g", [view])
        view.release()
        sanitizer.check_finish()
        assert sanitizer.counters["leak-at-finish"] == 0

    def test_use_after_free_on_use(self):
        sanitizer = Sanitizer()
        sanitizer.free("extent", "g")
        sanitizer.export("extent", "g")
        assert sanitizer.counters["use-after-free-extent"] == 1
        # The free happened-before the read: a use-after-free, no race.
        assert sanitizer.summary()["violations"] == 1

    def test_unreleased_drain_copy_at_finish(self):
        sanitizer = Sanitizer()
        sanitizer.note_drain_copy("pg", 64)
        sanitizer.check_finish()
        assert sanitizer.counters["unreleased-drain-copy"] == 1

    def test_released_drain_is_clean(self):
        sanitizer = Sanitizer()
        sanitizer.note_drain_copy("pg", 64)
        sanitizer.release_drain("pg")
        sanitizer.check_finish()
        assert sanitizer.counters["unreleased-drain-copy"] == 0

    def test_summary_counts_total_violations(self):
        sanitizer = Sanitizer()
        sanitizer.free("extent", "g")
        sanitizer.free("extent", "g")
        assert sanitizer.summary()["violations"] == 1
        assert set(BORROW_SLUGS) <= set(sanitizer.summary())

    def test_free_poisons_the_range(self):
        sanitizer = Sanitizer()
        backing = bytearray(b"\x11" * 32)
        sanitizer.free("extent", "g", mm=backing, offset=8, length=16)
        assert backing == (b"\x11" * 8 + bytes([POISON_BYTE]) * 16
                           + b"\x11" * 8)
        assert sanitizer.counters["poisoned_bytes"] == 16


class TestContextWiring:
    def test_disabled_means_no_ledgers_anywhere(self):
        ctx = make_ctx(ExecutionMode.DECA, sanitize=False)
        assert ctx.sanitizer is None
        assert all(e.sanitizer is None and e.arena.sanitizer is None
                   for e in ctx.executors)
        cache_one_rdd(ctx)
        run = ctx.finish()
        assert "sanitize" not in run.to_dict()
        assert run.sanitize == {}

    def test_one_sanitizer_per_run(self):
        ctx = make_ctx(ExecutionMode.DECA, num_executors=2)
        assert ctx.sanitizer is not None
        for executor in ctx.executors:
            assert executor.sanitizer is ctx.sanitizer
            assert executor.arena.sanitizer is ctx.sanitizer
        cache_one_rdd(ctx)
        run = ctx.finish()
        assert run.sanitize == ctx.sanitizer.summary()
        assert set(BORROW_SLUGS + RACE_SLUGS) <= set(run.sanitize)

    def test_two_tiers_reuse_an_extent_name_cleanly(self):
        """One sanitizer watches every executor's tier, so an extent is
        keyed by its tier too: executor 0 dropping its ``cache:x`` must
        not see executor 1's live views of its own ``cache:x`` (a
        use-after-free), nor executor 1's drop read as a double free."""
        ctx = make_ctx(ExecutionMode.DECA, num_executors=2)
        tiers = [executor.cold_tier for executor in ctx.executors]
        for fill, tier in enumerate(tiers, start=1):
            assert tier.demote("cache:x", [bytes([fill]) * 64], 64) == 64
        held = [tier.promote("cache:x", 64) for tier in tiers]
        assert [bytes(views[0]) for views in held] == \
            [b"\x01" * 64, b"\x02" * 64]
        for tier, views in zip(tiers, held):
            for view in views:
                view.release()
            tier.drop("cache:x")
        run = ctx.finish()
        assert run.sanitize["violations"] == 0
        assert (run.sanitize["allocs"], run.sanitize["borrows"],
                run.sanitize["frees"]) == (2, 2, 2)

    def test_finish_reports_both_rule_families(self):
        """A borrow violation must not hide a race violation: one
        ``finish()`` raises with every non-zero slug of both families."""
        ctx = make_ctx(ExecutionMode.DECA)
        cache_one_rdd(ctx)
        sanitizer = ctx.sanitizer
        sanitizer.free("extent", "twice")
        sanitizer.free("extent", "twice")                # DECA303
        sanitizer.note_refdec("segment", locked=False)   # DECA402
        with pytest.raises(SanitizerError) as err:
            ctx.finish()
        assert "double-free=1" in str(err.value)
        assert "refcount-outside-lock=1" in str(err.value)
        assert {slug for slug, count in err.value.summary.items()
                if count} == {"double-free", "refcount-outside-lock"}

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK_SER,
                                      ExecutionMode.DECA],
                             ids=lambda m: m.value)
    def test_clean_swap_churn_finishes_clean(self, mode):
        ctx = make_ctx(mode)
        cache_one_rdd(ctx)
        store = ctx.executors[0].cache
        for key in list(store.blocks):
            store.swap_out(key)
        for key in list(store.blocks):
            store.swap_in(key)
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0
        assert run.sanitize.get("borrows", 0) > 0
        assert "sanitize" in run.to_dict()

    def test_injected_leak_raises_sanitizer_error(self):
        ctx = make_ctx(ExecutionMode.DECA)
        cache_one_rdd(ctx)
        buf = bytearray(32)
        view = memoryview(buf)
        assert ctx.sanitizer is not None
        ctx.sanitizer.export("extent", "injected", [view])
        with pytest.raises(SanitizerError) as err:
            ctx.finish()
        assert "leak-at-finish" in str(err.value)
        view.release()


class TestDanglingPromotedViewRegression:
    """Superseded promotion blobs must be detached before extent free.

    Pre-fix, ``_drop_block`` / the serialized re-swap-out left
    ``block.blob`` (a memoryview aliasing the mmap extent) attached
    while the extent's bytes were freed and poisoned — a silent
    use-after-free the sanitizer now turns into a hard failure.
    """

    def promoted_block(self, ctx):
        store = ctx.executors[0].cache
        key = next(iter(store.blocks))
        store.swap_out(key)
        block = store.swap_in(key)
        return store, key, block

    def test_drop_releases_promoted_blob_before_extent_free(self):
        ctx = make_ctx(ExecutionMode.SPARK_SER)
        cache_one_rdd(ctx)
        store, key, block = self.promoted_block(ctx)
        assert block.plan.strategy is StorageStrategy.SERIALIZED
        assert isinstance(block.blob, memoryview)
        blob = block.blob
        store.invalidate_all()
        # The promotion view was explicitly detached: using it now is a
        # loud ValueError, not a silent read of recycled bytes.
        with pytest.raises(ValueError):
            blob.nbytes
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0

    def test_supersede_swap_out_releases_previous_promotion(self):
        ctx = make_ctx(ExecutionMode.SPARK_SER)
        cache_one_rdd(ctx)
        store, key, block = self.promoted_block(ctx)
        blob = block.blob
        assert isinstance(blob, memoryview)
        store.swap_out(key)   # supersede: the promoted copy is retired
        with pytest.raises(ValueError):
            blob.nbytes
        assert block.blob is None
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0

    def test_deca_adopted_pages_survive_drop_cleanly(self):
        ctx = make_ctx(ExecutionMode.DECA)
        rdd, _ = cache_one_rdd(ctx)
        store, key, block = self.promoted_block(ctx)
        store.remove_rdd(rdd.rdd_id)
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0

    def test_reswap_into_reused_extent_serves_fresh_bytes(self):
        ctx = make_ctx(ExecutionMode.SPARK_SER)
        rdd, data = cache_one_rdd(ctx)
        store, key, block = self.promoted_block(ctx)
        # Free the extent, then force the block back out and in again:
        # the returned bytes must be the block's, never a poison fill.
        store.swap_out(key)
        block = store.swap_in(key)
        assert isinstance(block.blob, memoryview)
        assert bytes(block.blob[:4]) != bytes([POISON_BYTE]) * 4
        assert sorted(rdd.collect()) == sorted(data)
        run = ctx.finish()
        assert run.sanitize.get("violations", 0) == 0


class TestGrowByRemapRegression:
    """Exported views survive tier file growth, byte for byte."""

    def test_views_stay_valid_across_grows(self, tmp_path):
        sanitizer = Sanitizer()
        tier = PageStoreTier(str(tmp_path / "grow.bin"), sanitizer=sanitizer)
        payload = bytes(range(256)) * 4
        tier.swap_out("pinned", [payload])
        views = tier.views("pinned")
        held = list(views)
        # Each swap-out doubles past the file size sooner or later; the
        # held views must alias the *retired* mapping, not garbage.
        for round_no in range(6):
            tier.swap_out(f"fill-{round_no}",
                          [b"\x5a" * (1 << (14 + round_no))])
            assert b"".join(bytes(v) for v in held) == payload
        assert sanitizer.counters["remaps"] > 0
        assert sanitizer.counters["remap-invalidates-export"] == 0
        assert sanitizer.summary()["violations"] == 0
        for view in held:
            view.release()
        tier.close()

    def test_grow_under_reentrant_swap_pressure(self, tmp_path):
        """Interleaved drop/swap churn (extent reuse + growth) while
        promoted views from every earlier round stay pinned."""
        sanitizer = Sanitizer()
        tier = PageStoreTier(str(tmp_path / "churn.bin"), sanitizer=sanitizer)
        pinned = {}
        held = {}
        for round_no in range(8):
            name = f"g{round_no}"
            payload = bytes([round_no + 1]) * (1 << (10 + round_no))
            tier.swap_out(name, [payload])
            pinned[name] = payload
            held[name] = tier.views(name)
            # Churn: a transient neighbour comes and goes, punching
            # free-list holes that the next round's grow must respect.
            tier.swap_out(f"tmp{round_no}", [b"\xee" * 2048])
            tier.drop(f"tmp{round_no}")
            for past, payload in pinned.items():
                got = b"".join(bytes(v) for v in held[past])
                assert got == payload, f"{past} corrupted at {round_no}"
        assert sanitizer.counters["remaps"] > 0
        assert sanitizer.summary()["violations"] == 0
        for views in held.values():
            for view in views:
                view.release()
        tier.close()

    def test_promoted_bytes_never_poisoned(self, tmp_path):
        sanitizer = Sanitizer()
        tier = PageStoreTier(str(tmp_path / "poison.bin"), sanitizer=sanitizer)
        tier.swap_out("victim", [b"\x11" * 4096])
        for view in tier.views("victim"):
            view.release()
        tier.drop("victim")   # poisons the hole
        tier.swap_out("tenant", [b"\x22" * 4096])  # reuses the hole
        got = b"".join(bytes(v) for v in tier.swap_in("tenant"))
        assert POISON_BYTE not in got
        assert got == b"\x22" * 4096
        assert sanitizer.summary()["violations"] == 0
        tier.close()
