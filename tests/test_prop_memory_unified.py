"""Property-based tests: unified memory arena invariants.

Drives :class:`repro.memory.UnifiedMemoryManager` with random
operation scripts (grants, releases, storage claims, evictions, task
churn) and checks the accounting invariants that the rest of the
engine relies on, plus end-to-end cache-counter consistency for
arbitrary unified-mode workloads.
"""

from hypothesis import given, settings, strategies as st

from repro.config import DecaConfig, ExecutionMode, MB
from repro.memory import UnifiedMemoryManager
from repro.spark import DecaContext


def make_arena(**overrides) -> UnifiedMemoryManager:
    cfg = DecaConfig(heap_bytes=overrides.pop("heap_bytes", 8 * MB),
                     memory_mode="unified", **overrides)
    return UnifiedMemoryManager(cfg)


class ScriptConsumer:
    """A spillable consumer used by the random scripts."""

    def __init__(self, arena: UnifiedMemoryManager, name: str) -> None:
        self.arena = arena
        self.name = name
        self.held = 0

    @property
    def consumer_name(self) -> str:
        return self.name

    def memory_used(self) -> int:
        return self.held

    def spill(self) -> int:
        freed = self.arena.execution_release(self.held, consumer=self)
        self.held = 0
        return freed


@st.composite
def arena_script(draw):
    """A random sequence of arena operations."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["exec-acquire", "exec-release",
                             "storage-acquire", "storage-discard",
                             "task-start", "task-finish", "pressure"]),
            st.integers(0, 7),            # actor index (task / entry)
            st.integers(1, 2 * MB),       # bytes
        ),
        min_size=1, max_size=60))


def check_invariants(arena: UnifiedMemoryManager) -> None:
    # Execution plus storage can never exceed the arena.
    assert arena.execution_used + arena.storage_used <= arena.total
    assert arena.execution_used >= 0
    assert arena.storage_used >= 0
    assert arena.free_bytes == (arena.total - arena.execution_used
                                - arena.storage_used)
    # Per-task attribution sums to the execution counter.
    assert sum(arena._task_used.values()) == arena.execution_used
    # Storage entries sum to the storage counter.
    assert sum(e.nbytes for e in arena._entries.values()) \
        == arena.storage_used


@given(arena_script())
@settings(max_examples=100, deadline=None)
def test_arena_accounting_invariants(script):
    """exec+storage <= total and byte conservation hold under any
    operation interleaving."""
    arena = make_arena()
    consumers = {}
    tasks = []
    entry_seq = 0
    for op, actor, nbytes in script:
        if op == "task-start":
            tasks.append(arena.task_started())
        elif op == "task-finish" and tasks:
            key = tasks.pop(actor % len(tasks))
            arena.task_finished(key)
        elif op == "exec-acquire":
            key = tasks[actor % len(tasks)] if tasks else None
            name = f"c{actor}"
            consumer = consumers.setdefault(
                name, ScriptConsumer(arena, name))
            before = arena.task_used(
                key if key is not None else arena.current_task_key())
            cap = arena.max_per_task()
            granted = arena.execution_acquire(nbytes, consumer=consumer,
                                              task_key=key)
            consumer.held += granted
            # The fair-share clamp: a task never exceeds pool/N at the
            # moment of the grant.
            assert before + granted <= max(cap, before)
        elif op == "exec-release":
            name = f"c{actor}"
            consumer = consumers.get(name)
            if consumer is not None and consumer.held:
                freed = arena.execution_release(nbytes, consumer=consumer)
                consumer.held -= freed
                assert consumer.held >= 0
        elif op == "storage-acquire":
            entry_seq += 1
            arena.storage_acquire(f"s{entry_seq}", nbytes,
                                  evict=lambda: None)
        elif op == "storage-discard":
            names = sorted(arena._entries)
            if names:
                arena.storage_discard(names[actor % len(names)])
        elif op == "pressure":
            # Spilled consumers zero their own ledger inside spill().
            assert arena.release_for_pressure(nbytes) >= 0
        check_invariants(arena)
    # Conservation: every granted byte is either still held or was
    # released; same for the storage side.
    stats = arena.stats
    assert stats.granted_bytes \
        == stats.released_bytes + arena.execution_used
    assert stats.storage_acquired_bytes \
        == stats.storage_released_bytes + arena.storage_used
    # Teardown drains to zero (including the implicit slot used by
    # acquires issued outside any registered task).
    for key in list(arena._task_used):
        arena.task_finished(key)
    for name in list(arena._entries):
        arena.storage_discard(name)
    assert arena.execution_used == 0
    assert arena.storage_used == 0
    assert arena.free_bytes == arena.total


@given(st.integers(1, 4), st.lists(st.integers(1, 4 * MB),
                                   min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_fair_share_grant_bounds(task_count, requests):
    """With evictable storage and spillable siblings, every task that
    asks for its fair share receives at least pool/2N and at most
    pool/N."""
    arena = make_arena()
    # Seed the storage side so grants must evict borrowed storage.
    arena.storage_acquire("seed", arena.total // 2, evict=lambda: None)
    keys = [arena.task_started() for _ in range(task_count)]
    consumers = [ScriptConsumer(arena, f"t{i}")
                 for i in range(task_count)]
    for i, nbytes in enumerate(requests):
        idx = i % task_count
        key = keys[idx]
        consumer = consumers[idx]
        used = arena.task_used(key)
        granted = arena.execution_acquire(nbytes, consumer=consumer,
                                          task_key=key)
        consumer.held += granted
        pool = arena.execution_pool_size()
        n = arena.active_tasks
        # Upper bound: never beyond pool/N.
        assert arena.task_used(key) <= pool // n
        # Lower bound: a request of at least the minimum share is
        # granted at least pool/2N (storage above the region floor is
        # evictable and every sibling grant is spillable).
        if used == 0 and nbytes >= pool // (2 * n):
            assert granted >= pool // (2 * n)
    check_invariants(arena)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_borrow_evict_release_conserve_bytes(data):
    """Borrowing and evicting move bytes between sides without
    creating or destroying them."""
    arena = make_arena()
    key = arena.task_started()
    chunk = 64 * 1024
    chunks = data.draw(st.integers(1, arena.total // chunk))
    for i in range(chunks):
        arena.storage_acquire(f"blob{i}", chunk, evict=lambda: None)
    stored = arena.storage_used
    demand = data.draw(st.integers(1, arena.total))
    granted = arena.execution_acquire(demand, task_key=key)
    evicted = stored - arena.storage_used
    # Eviction reclaims only storage borrowed beyond the region floor;
    # entries are indivisible, so the floor may be overshot by at most
    # one entry.
    assert arena.storage_used > min(stored, arena.storage_region) - chunk
    assert evicted == arena.stats.evicted_bytes
    assert arena.execution_used + arena.storage_used <= arena.total
    # Releasing the grant restores the free pool exactly.
    free_before = arena.free_bytes
    assert arena.execution_release(granted, task_key=key) == granted
    assert arena.free_bytes == free_before + granted
    assert arena.stats.granted_bytes \
        == arena.stats.released_bytes + arena.execution_used


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-40, 40)),
                min_size=1, max_size=80),
       st.integers(1, 4),
       st.sampled_from([ExecutionMode.SPARK, ExecutionMode.SPARK_SER,
                        ExecutionMode.DECA]))
@settings(max_examples=30, deadline=None)
def test_cache_counter_consistent_under_unified_mode(pairs, parts, mode):
    """After arbitrary unified-mode workloads the cache's resident bytes
    equal the arena's storage book, and that ledger contains every
    resident block."""
    ctx = DecaContext(DecaConfig(mode=mode, memory_mode="unified",
                                 heap_bytes=8 * MB, num_executors=2,
                                 tasks_per_executor=2))
    rdd = ctx.parallelize(pairs, parts).cache()
    first = sorted(rdd.collect())
    result = dict(rdd.reduce_by_key(lambda a, b: a + b,
                                    parts).collect())
    second = sorted(rdd.collect())
    assert first == second == sorted(pairs)
    expected: dict[int, int] = {}
    for k, v in pairs:
        expected[k] = expected.get(k, 0) + v
    assert result == expected
    for exe in ctx.executors:
        cache = exe.cache
        assert cache.arena.storage_used == cache.memory_bytes
        arena = exe.arena
        assert isinstance(arena, UnifiedMemoryManager)
        check_invariants(arena)
        # No task slots leak past the run.
        assert arena._task_stack == []
        assert arena.execution_used == 0
