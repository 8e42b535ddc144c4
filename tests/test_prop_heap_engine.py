"""Property-based tests: heap accounting invariants and engine semantics."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.config import DecaConfig, ExecutionMode, MB
from repro.errors import OutOfMemoryError
from repro.jvm import Lifetime, SimHeap
from repro.simtime import SimClock
from repro.spark import DecaContext


@st.composite
def allocation_script(draw, sizes=st.integers(8, 200_000)):
    """A random sequence of heap operations."""
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["alloc-temp", "alloc-pinned", "free", "shrink",
                             "minor", "full"]),
            st.integers(1, 500),      # objects
            sizes,                    # bytes
        ),
        min_size=1, max_size=40))
    return ops


def assert_totals_match_recount(heap):
    """The O(1) occupancy counters equal a scan over the live groups."""
    groups = list(heap._groups.values())
    assert heap.young_live_bytes == sum(g.young_bytes for g in groups)
    assert heap.old_live_bytes == sum(g.old_bytes for g in groups)
    assert heap.live_bytes == sum(g.live_bytes for g in groups)
    assert heap.live_objects == sum(g.live_objects for g in groups)
    assert all(g.young_bytes >= 0 and g.old_bytes >= 0 for g in groups)


@given(allocation_script())
@settings(max_examples=80, deadline=None)
def test_heap_accounting_invariants(script):
    cfg = DecaConfig(heap_bytes=32 * MB)
    heap = SimHeap(cfg, SimClock())
    pinned = []
    temp = heap.new_group("temp", Lifetime.TEMPORARY)
    for op, objects, nbytes in script:
        if op == "alloc-temp":
            heap.allocate(temp, objects, nbytes)
        elif op == "alloc-pinned":
            group = heap.new_group(f"pin{len(pinned)}", Lifetime.PINNED)
            heap.allocate(group, objects, nbytes)
            pinned.append(group)
        elif op == "free" and pinned:
            heap.free_group(pinned.pop())
        elif op == "shrink" and pinned:
            pinned[-1].shrink(min(nbytes, pinned[-1].live_bytes))
        elif op == "minor":
            heap.minor_gc()
        elif op == "full":
            heap.full_gc()
        # Invariants after every operation:
        assert_totals_match_recount(heap)
        assert 0 <= heap.young_live_bytes <= heap.young_used_bytes
        assert 0 <= heap.old_live_bytes <= heap.old_used_bytes
        assert heap.live_objects >= 0
        # Used space never exceeds capacity by more than the transient
        # overflow a collection is about to resolve.
        assert heap.young_used_bytes <= heap.config.heap_bytes
    # Clock is monotone and GC events are ordered.
    starts = [e.start_ticks for e in heap.stats.events]
    assert starts == sorted(starts)
    # Freeing everything and collecting empties the heap.
    for group in pinned:
        heap.free_group(group)
    heap.free_group(temp)
    heap.full_gc()
    heap.minor_gc()
    assert_totals_match_recount(heap)
    assert heap.live_objects == 0
    assert heap.old_used_bytes == 0


@given(allocation_script(st.sampled_from(
    [64, 4096, 60_000, 200_000, 300_000, 500_000, 900_000, 3 * MB])))
@settings(max_examples=150, deadline=None)
def test_heap_totals_survive_pressure_and_oom(script):
    """A 2 MB heap with sizes up to its own: the scripts run into
    collections triggered by ``allocate``, humongous allocations, the
    eviction handler (which frees groups from inside ``allocate``) and
    OutOfMemoryError — the counters must equal the recount after each
    step, failed ones included."""
    heap = SimHeap(DecaConfig(heap_bytes=2 * MB, page_bytes=MB),
                   SimClock())
    pinned = []

    def evict(nbytes):
        released = 0
        while pinned and released < nbytes:
            victim = pinned.pop(0)
            released += victim.live_bytes
            heap.free_group(victim)
        return released

    heap.add_pressure_handler(evict)
    temp = heap.new_group("temp", Lifetime.TEMPORARY)
    for op, objects, nbytes in script:
        try:
            if op == "alloc-temp":
                heap.allocate(temp, objects, nbytes)
            elif op == "alloc-pinned":
                # Evictable only once filled: the handler must never free
                # the group an allocation is in flight for.
                group = heap.new_group(f"pin{len(pinned)}", Lifetime.PINNED)
                heap.allocate(group, objects, nbytes)
                pinned.append(group)
            elif op == "free" and pinned:
                heap.free_group(pinned.pop())
            elif op == "shrink" and pinned:
                pinned[-1].shrink(min(nbytes, pinned[-1].live_bytes))
            elif op == "minor":
                heap.minor_gc()
            elif op == "full":
                heap.full_gc()
        except OutOfMemoryError:
            pass
        assert_totals_match_recount(heap)
        assert heap.young_used_bytes >= heap.young_live_bytes >= 0
        assert heap.old_used_bytes >= heap.old_live_bytes >= 0


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-100, 100)),
                min_size=1, max_size=150),
       st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(list(ExecutionMode)))
@settings(max_examples=40, deadline=None)
def test_reduce_by_key_matches_counter(pairs, parts_in, parts_out, mode):
    """Engine shuffle semantics == plain-Python aggregation, all modes."""
    ctx = DecaContext(DecaConfig(mode=mode, heap_bytes=32 * MB,
                                 num_executors=2, tasks_per_executor=2))
    rdd = ctx.parallelize(pairs, parts_in)
    result = dict(rdd.reduce_by_key(lambda a, b: a + b,
                                    parts_out).collect())
    expected: dict[int, int] = {}
    for key, value in pairs:
        expected[key] = expected.get(key, 0) + value
    assert result == expected


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=200),
       st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_cached_collect_is_stable(values, parts):
    """A cached dataset returns identical records on every pass."""
    ctx = DecaContext(DecaConfig(heap_bytes=32 * MB, num_executors=2,
                                 tasks_per_executor=2))
    rdd = ctx.parallelize(values, parts).map(lambda x: x * 3).cache()
    first = sorted(rdd.collect())
    second = sorted(rdd.collect())
    third = sorted(rdd.collect())
    assert first == second == third == sorted(x * 3 for x in values)


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                min_size=1, max_size=100))
@settings(max_examples=30, deadline=None)
def test_group_by_key_partitions_all_records(pairs):
    ctx = DecaContext(DecaConfig(heap_bytes=32 * MB, num_executors=2,
                                 tasks_per_executor=2))
    grouped = ctx.parallelize(pairs, 3).group_by_key(3).collect()
    flattened = Counter()
    for key, values in grouped:
        for value in values:
            flattened[(key, value)] += 1
    assert flattened == Counter(pairs)
    keys = [key for key, _ in grouped]
    assert len(keys) == len(set(keys))  # each key appears exactly once
