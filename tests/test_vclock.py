"""Unit tests for the vector-clock race sanitizer (repro.obs.vclock).

One clean/racy pair per DECA40x rule, plus the cross-process protocol:
fork snapshots, per-task note draining, driver-side absorption and the
join edges that make a legal schedule violation-free.
"""

import pytest

from repro.errors import SanitizerError
from repro.obs.tracer import Tracer
from repro.obs.vclock import (
    RACE_SLUGS,
    VClockChecker,
    clock_leq,
    clock_merge,
)


class TestClockAlgebra:
    def test_leq_reflexive_and_componentwise(self):
        assert clock_leq({"a": 1}, {"a": 1})
        assert clock_leq({"a": 1}, {"a": 2, "b": 1})
        assert not clock_leq({"a": 2}, {"a": 1})
        assert not clock_leq({"a": 1, "b": 1}, {"a": 1})

    def test_merge_is_componentwise_max(self):
        into = {"a": 3, "b": 1}
        clock_merge(into, {"a": 1, "c": 2})
        assert into == {"a": 3, "b": 1, "c": 2}

    def test_concurrent_clocks_unordered(self):
        a, b = {"p": 1}, {"q": 1}
        assert not clock_leq(a, b)
        assert not clock_leq(b, a)


class TestSegmentLifecycle:
    def test_sequential_create_attach_reclaim_is_clean(self):
        checker = VClockChecker()
        checker.note_create("segment", "s")
        checker.note_attach("segment", "s")
        checker.note_reclaim("segment", "s")
        assert checker.summary()["violations"] == 0

    def test_concurrent_attach_after_reclaim_fires_401(self):
        checker = VClockChecker()
        checker.note_create("segment", "s")
        checker.fork("attacker")
        checker.note_reclaim("segment", "s")
        checker.note_attach("segment", "s", actor="attacker")
        assert checker.counters["unlink-concurrent-with-attach"] == 1

    def test_rebirth_clears_the_window(self):
        checker = VClockChecker()
        checker.note_create("segment", "s")
        checker.fork("attacker")
        checker.note_reclaim("segment", "s")
        checker.note_create("segment", "s")
        checker.note_attach("segment", "s", actor="attacker")
        # The re-create killed the reclaim record: no stale mapping.
        assert checker.summary()["violations"] == 0

    def test_reclaim_concurrent_with_access_fires(self):
        checker = VClockChecker()
        checker.note_create("extent", "e")
        checker.fork("reader")
        checker.note_access("extent", "e", actor="reader")
        checker.note_reclaim("extent", "e")
        # An extent read across its reclaim is DECA401's happens-before
        # check on a second resource kind; the record keeps the kind.
        assert checker.counters["unlink-concurrent-with-attach"] == 1
        assert checker.violations[0]["kind"] == "extent"


class TestRefcountsAndTransitions:
    def test_locked_refdec_clean_unlocked_fires_402(self):
        checker = VClockChecker()
        checker.note_refdec("s", locked=True)
        assert checker.summary()["violations"] == 0
        checker.note_refdec("s", locked=False)
        assert checker.counters["refcount-outside-lock"] == 1


class TestPoolsAndGrants:
    def test_cas_write_with_current_version_clean(self):
        checker = VClockChecker()
        version = checker.pool_read("execution")
        checker.pool_write("execution", based_on=version)
        assert checker.summary()["violations"] == 0

    def test_stale_based_on_fires_404(self):
        checker = VClockChecker()
        version = checker.pool_read("execution")
        checker.pool_write("execution")  # the concurrent transition
        checker.pool_write("execution", based_on=version)
        assert checker.counters["borrow-evict-lost-update"] == 1

    def test_grant_release_grant_clean(self):
        checker = VClockChecker()
        checker.note_grant("t1")
        checker.note_grant_release("t1")
        checker.note_grant("t1")
        assert checker.summary()["violations"] == 0

    def test_double_grant_fires_410(self):
        checker = VClockChecker()
        checker.note_grant("t1")
        checker.note_grant("t1")
        assert checker.counters["double-grant"] == 1


class TestBarriersSweepsSpills:
    def test_consume_without_join_fires_405(self):
        checker = VClockChecker()
        checker.fork("w0")
        checker.note_result_produced("t0", actor="w0")
        checker.note_result_consumed("t0")
        assert checker.counters["wave-barrier-bypass"] == 1

    def test_consume_after_join_clean(self):
        checker = VClockChecker()
        checker.fork("w0")
        checker.note_result_produced("t0", actor="w0")
        checker.join("w0")
        checker.note_result_consumed("t0")
        assert checker.summary()["violations"] == 0

    def test_sweep_of_dead_owner_clean_live_fires_406(self):
        checker = VClockChecker()
        checker.fork("w0")
        checker.exit_actor("w0")
        checker.note_sweep("repro-mp-x-", owner="w0")
        assert checker.summary()["violations"] == 0
        checker.fork("w1")
        checker.note_sweep("repro-mp-x-", owner="w1")
        assert checker.counters["orphan-sweep-live-worker"] == 1

    def test_victim_outside_swap_clean_inside_fires_407(self):
        checker = VClockChecker()
        checker.note_victim("b1")
        checker.swap_begin("b1")
        checker.swap_end("b1")
        assert checker.summary()["violations"] == 0
        checker.swap_begin("b2")
        checker.note_victim("b2")
        assert checker.counters["reentrant-spill-victim"] == 1


class TestReadonlyAndRelay:
    def test_untouched_adoption_clean(self):
        checker = VClockChecker()
        view = bytearray(b"abcd")
        checker.adopt_readonly("segment", "s", view)
        checker.verify_readonly("segment", "s")
        assert checker.summary()["violations"] == 0

    def test_write_through_adoption_fires_408(self):
        checker = VClockChecker()
        view = bytearray(b"abcd")
        checker.adopt_readonly("segment", "s", view)
        view[0] = 0xFF
        checker.verify_readonly("segment", "s")
        assert checker.counters["readonly-page-write"] == 1

    def test_anchored_relay_clean_unanchored_fires_409(self):
        checker = VClockChecker()
        checker.note_relay(105.0, 100.0)
        assert checker.summary()["violations"] == 0
        checker.note_relay(1.0, 100.0)
        assert checker.counters["trace-relay-reorder"] == 1


class TestCrossProcessProtocol:
    def test_fork_snapshot_seeds_the_worker(self):
        driver = VClockChecker()
        snapshot = driver.fork("w0")
        worker = VClockChecker(actor="w0", snapshot=snapshot)
        clock = worker.export_notes()["clock"]
        assert clock_leq(snapshot, clock) or clock == dict(
            snapshot, w0=0)

    def test_absorb_folds_worker_violations_and_counters(self):
        driver = VClockChecker()
        snapshot = driver.fork("w0")
        worker = VClockChecker(actor="w0", snapshot=snapshot)
        worker.note_refdec("s", locked=False)
        driver.absorb(worker.export_notes(drain=True))
        assert driver.counters["refcount-outside-lock"] == 1
        assert driver.summary()["violations"] == 1
        assert driver.counters["refdecs"] == 1

    def test_drain_ships_deltas_never_double_counts(self):
        driver = VClockChecker()
        snapshot = driver.fork("w0")
        worker = VClockChecker(actor="w0", snapshot=snapshot)
        worker.note_access("extent", "e")
        first = worker.export_notes(drain=True)
        second = worker.export_notes(drain=True)
        assert len(first["accesses"]) == 1
        assert second["accesses"] == []
        assert second["violations"] == []
        # The clock survives the drain — it is monotone.
        assert clock_leq(first["clock"], second["clock"])
        driver.absorb(first)
        driver.absorb(second)
        assert driver.counters["accesses"] == 1

    def test_absorb_before_reclaim_is_the_safe_order(self):
        driver = VClockChecker()
        driver.note_create("segment", "s")
        snapshot = driver.fork("w0")
        worker = VClockChecker(actor="w0", snapshot=snapshot)
        worker.note_attach("segment", "s")
        driver.absorb(worker.export_notes(drain=True))
        driver.exit_actor("w0")
        driver.note_reclaim("segment", "s")
        assert driver.summary()["violations"] == 0

    def test_reclaim_before_absorb_fires(self):
        driver = VClockChecker()
        driver.note_create("segment", "s")
        snapshot = driver.fork("w0")
        worker = VClockChecker(actor="w0", snapshot=snapshot)
        worker.note_access("segment", "s")
        driver.note_reclaim("segment", "s")
        driver.absorb(worker.export_notes(drain=True))
        assert driver.counters["unlink-concurrent-with-attach"] == 1


    @pytest.mark.parametrize("send_edge", [False, True])
    def test_send_edge_orders_a_long_lived_worker_after_the_driver(
            self, send_edge):
        """A worker forked at job start knows nothing of what the driver
        did since — unless the order it is serving carried the clock."""
        driver = VClockChecker()
        worker = VClockChecker(actor="w0", snapshot=driver.fork("w0"))
        driver.note_create("segment", "s")
        driver.note_reclaim("segment", "s")
        if send_edge:
            worker.join("driver", driver.send())
        worker.note_attach("segment", "s")
        driver.absorb(worker.export_notes(drain=True))
        assert driver.counters["unlink-concurrent-with-attach"] == \
            (0 if send_edge else 1)


class TestReporting:
    def test_summary_has_every_slug(self):
        summary = VClockChecker().summary()
        for slug in RACE_SLUGS:
            assert summary[slug] == 0
        assert summary["violations"] == 0

    def test_violations_reach_the_tracer(self):
        tracer = Tracer()
        checker = VClockChecker(tracer=tracer)
        checker.note_grant("t")
        checker.note_grant("t")
        names = [event.name for event in tracer.events]
        assert "race:double-grant" in names

    def test_context_raises_sanitizer_error_on_violations(self):
        from repro.config import DecaConfig, ExecutionMode
        from repro.spark.context import DecaContext

        cfg = DecaConfig(mode=ExecutionMode.DECA, sanitize=True)
        ctx = DecaContext(cfg)
        assert ctx.vclock is not None
        ctx.parallelize([1, 2, 3], 2).count()
        # Seed a violation directly: the finish gate must raise.
        ctx.vclock.note_grant("t")
        ctx.vclock.note_grant("t")
        with pytest.raises(SanitizerError):
            ctx.finish()
