"""The runtime alias sanitizer: ledger triggers, engine wiring, and the
zero-copy regression scenarios the DECA30x rules exist for.

Includes the two regression tests this PR hardens the engine against:

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
from repro.memory.provenance import (
    POISON_BYTE,
    VIOLATION_SLUGS,
    ProvenanceLedger,
)
from repro.memory.tier import PageStoreTier
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
    """Each DECA30x violation slug has a direct ledger trigger."""

    def test_free_under_live_borrow_extent(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        ledger.note_free("extent", "g")
        assert ledger.counters["use-after-free-extent"] == 1
        assert view.nbytes == 16  # trigger fired, view untouched

    def test_free_under_live_borrow_segment(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("segment", "s", view=view)
        ledger.note_free("segment", "s")
        assert ledger.counters["use-after-unlink-segment"] == 1

    def test_released_borrow_does_not_trip_free(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        view.release()
        ledger.note_free("extent", "g")
        assert ledger.counters["use-after-free-extent"] == 0

    def test_double_free(self):
        ledger = ProvenanceLedger()
        ledger.note_free("extent", "g")
        ledger.note_free("extent", "g")
        assert ledger.counters["double-free"] == 1

    def test_realloc_resets_double_free(self):
        ledger = ProvenanceLedger()
        ledger.note_free("extent", "g")
        ledger.note_alloc("extent", "g")
        ledger.note_free("extent", "g")
        assert ledger.counters["double-free"] == 0

    def test_unretired_remap_under_live_borrow(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        ledger.note_remap("extent", ["g"], retired=False)
        assert ledger.counters["remap-invalidates-export"] == 1

    def test_retired_remap_is_clean(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        ledger.note_remap("extent", ["g"], retired=True)
        assert ledger.counters["remap-invalidates-export"] == 0

    def test_escaped_adoption_at_finish(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view, transient=False)
        ledger.retain("extent", "g", group="pg")
        ledger.note_reclaim("pg")
        ledger.check_finish()
        assert ledger.counters["view-escapes-adoption"] == 1

    def test_leak_at_finish(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        ledger.check_finish()
        assert ledger.counters["leak-at-finish"] == 1
        view.release()

    def test_released_transient_is_not_a_leak(self):
        ledger = ProvenanceLedger()
        buf = bytearray(16)
        view = memoryview(buf)
        ledger.borrow("extent", "g", view=view)
        view.release()
        ledger.check_finish()
        assert ledger.counters["leak-at-finish"] == 0

    def test_use_after_free_on_use(self):
        ledger = ProvenanceLedger()
        ledger.note_free("extent", "g")
        ledger.borrow("extent", "g", nbytes=16)
        assert ledger.counters["use-after-free-extent"] == 1

    def test_unreleased_drain_copy_at_finish(self):
        ledger = ProvenanceLedger()
        ledger.note_drain_copy("pg", 64)
        ledger.check_finish()
        assert ledger.counters["unreleased-drain-copy"] == 1

    def test_released_drain_is_clean(self):
        ledger = ProvenanceLedger()
        ledger.note_drain_copy("pg", 64)
        ledger.release_drain("pg")
        ledger.check_finish()
        assert ledger.counters["unreleased-drain-copy"] == 0

    def test_summary_counts_total_violations(self):
        ledger = ProvenanceLedger()
        ledger.note_free("extent", "g")
        ledger.note_free("extent", "g")
        assert ledger.summary()["violations"] == 1
        assert set(VIOLATION_SLUGS) <= set(ledger.summary())


class TestContextWiring:
    def test_disabled_means_no_ledgers_anywhere(self):
        ctx = make_ctx(ExecutionMode.DECA, sanitize=False)
        try:
            assert ctx.ledger is None
            assert all(e.ledger is None for e in ctx.executors)
            cache_one_rdd(ctx)
            run = ctx.finish()
        finally:
            pass
        assert "sanitize" not in run.to_dict()
        assert run.sanitize == {}

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
        assert ctx.ledger is not None
        ctx.ledger.borrow("extent", "injected", view=view)
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
        ledger = ProvenanceLedger()
        tier = PageStoreTier(str(tmp_path / "grow.bin"), ledger=ledger)
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
        assert ledger.counters["remaps"] > 0
        assert ledger.counters["remap-invalidates-export"] == 0
        assert ledger.summary()["violations"] == 0
        for view in held:
            view.release()
        tier.close()

    def test_grow_under_reentrant_swap_pressure(self, tmp_path):
        """Interleaved drop/swap churn (extent reuse + growth) while
        promoted views from every earlier round stay pinned."""
        ledger = ProvenanceLedger()
        tier = PageStoreTier(str(tmp_path / "churn.bin"), ledger=ledger)
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
        assert ledger.counters["remaps"] > 0
        assert ledger.summary()["violations"] == 0
        for views in held.values():
            for view in views:
                view.release()
        tier.close()

    def test_promoted_bytes_never_poisoned(self, tmp_path):
        ledger = ProvenanceLedger()
        tier = PageStoreTier(str(tmp_path / "poison.bin"), ledger=ledger)
        tier.swap_out("victim", [b"\x11" * 4096])
        for view in tier.views("victim"):
            view.release()
        tier.drop("victim")   # poisons the hole
        tier.swap_out("tenant", [b"\x22" * 4096])  # reuses the hole
        got = b"".join(bytes(v) for v in tier.swap_in("tenant"))
        assert POISON_BYTE not in got
        assert got == b"\x22" * 4096
        assert ledger.summary()["violations"] == 0
        tier.close()
