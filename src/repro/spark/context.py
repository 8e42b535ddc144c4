"""DecaContext — the application entry point (SparkContext analogue).

A context owns the simulated cluster (executors with heaps and clocks), the
shuffle service, the DAG scheduler and the planner that decides how each
cache block and shuffle buffer is stored — in ``DECA`` mode the runtime
optimizer of Appendix A (plans are made when a dataset is first
materialized, using the UDT analysis plus runtime symbol bindings).

Typical use::

    ctx = DecaContext(DecaConfig(mode=ExecutionMode.DECA))
    points = ctx.parallelize(data, 8).map(parse).with_udt(info).cache()
    for _ in range(30):
        gradient = points.map(gradient_of).reduce(add)
    report = ctx.finish()
"""

from __future__ import annotations

import enum
import itertools
import zlib
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..config import DecaConfig, ExecutionMode
from ..core.plan import ContainerPlan, StorageStrategy
from ..errors import ExecutionError, SanitizerError
from ..exec import create_backend
from ..jvm.objects import Lifetime
from ..obs import Tracer
from ..simtime import ticks_to_ms
from .cache import CachedBlock
from .measure import RecordFootprint
from .metrics import JobMetrics, RunMetrics
from .profiler import HeapProfiler
from .rdd import (
    ParallelCollectionRDD,
    RDD,
    ShuffleDependency,
    UdtInfo,
)
from .faults import FaultInjector
from .scheduler import DAGScheduler, TaskContext
from .executor import Executor
from .shuffle import ShuffleBlockStore

if TYPE_CHECKING:
    from ..obs.sanitizer import Sanitizer

# ``Double.hashCode`` of 0x7ff8000000000000: high word ^ low word.
_NAN_HASH = 0x7FF80000


def stable_hash(key: Any) -> int:
    """A hash for partitioning.

    Process-independent for ``None``, ``bool``, ``int``, ``float``,
    ``str`` and ``bytes`` (subclasses included), for enum members (an
    ``int`` or ``str`` enum hashes as its value, any other by its type's
    qualified name and member name) and for tuples and frozensets of
    those, so a key lands in the same partition in every run.  Any other
    key falls back to ``hash()``, which is process-local wherever that
    is: address-based for plain objects.
    """
    # The two everyday key types first, by exact type (``bool`` is not
    # ``int`` here, so ``True`` still takes the branch below).
    kind = type(key)
    if kind is str:
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if kind is int:
        return key & 0x7FFFFFFF
    if key is None:
        # ``hash(None)`` is address-based before Python 3.12; a null key
        # hashes to 0, as ``Objects.hashCode(null)`` does on the JVM.
        return 0
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, float):
        if key != key:
            # ``hash(nan)`` is the object's address since Python 3.10;
            # every NaN hashes as the JVM's canonical NaN does
            # (``Double.hashCode(Double.NaN)``).
            return _NAN_HASH
        return hash(key) & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        acc = 97
        for item in key:
            acc = (acc * 31 + stable_hash(item)) & 0x7FFFFFFF
        return acc
    if isinstance(key, enum.Enum):
        # ``hash()`` of a member is its name's salted string hash.
        return stable_hash((type(key).__qualname__, key.name))
    if isinstance(key, frozenset):
        # Iteration order is salted too; a sum does not depend on it.
        return sum(stable_hash(item) for item in key) & 0x7FFFFFFF
    return hash(key) & 0x7FFFFFFF


class DecaContext:
    """The driver: builds RDDs, runs jobs, reports metrics."""

    def __init__(self, config: DecaConfig | None = None) -> None:
        self.config = config or DecaConfig()
        self.mode = self.config.mode
        self.shuffle_store = ShuffleBlockStore()
        self.fault_injector = FaultInjector(self.config.faults)
        # One trace buffer per run; every layer emits into it (repro.obs).
        self.tracer = Tracer()
        # The run's one sanitizer (docs/static_analysis.md): every
        # executor, arena, cold tier and the shm registry report to it;
        # mp workers run forked replicas whose notes it absorbs with each
        # result message.  None unless config.sanitize — zero overhead off,
        # and its module is not even loaded.
        self.sanitizer: Sanitizer | None = None
        if self.config.sanitize:
            from ..obs.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(tracer=self.tracer)
        self.executors = [
            Executor(i, self.config, self.shuffle_store,
                     tracer=self.tracer, sanitizer=self.sanitizer)
            for i in range(self.config.num_executors)
        ]
        for executor in self.executors:
            executor.fault_injector = self.fault_injector
        self.scheduler = DAGScheduler(self)
        # How stages execute: the sim backend declines every stage (the
        # scheduler's in-process loop runs); the mp backend runs them on
        # forked workers with shared-memory pages (repro.exec).
        self.backend = create_backend(self)
        self.partitioner = stable_hash
        # Per-context id sequences: a fresh context numbers RDDs and
        # shuffles from zero, keeping same-seed runs byte-identical even
        # when several contexts live in one interpreter.
        self._rdd_ids = itertools.count()
        self._shuffle_ids = itertools.count()
        self._rdds: dict[int, RDD] = {}
        self._jobs: list[JobMetrics] = []
        # The one planner: every container's plan, in every mode, made
        # when a job first materializes the container.
        from ..core.optimizer import DecaOptimizer
        self._optimizer = DecaOptimizer(self)

    # -- dataset creation ---------------------------------------------------------
    def parallelize(self, data: Iterable[Any], num_partitions: int,
                    name: str = "parallelize",
                    udt_info: UdtInfo | None = None) -> RDD:
        """Distribute a driver-side collection."""
        return ParallelCollectionRDD(self, list(data), num_partitions,
                                     name=name, udt_info=udt_info)

    def text_file(self, lines: Iterable[str], num_partitions: int,
                  name: str = "textFile") -> RDD:
        """A text dataset, charged like reading one HDFS split per task."""
        data = list(lines)
        avg_bytes = (sum(map(len, data)) / len(data)
                     if data else 0.0)
        read_ms = self.config.io.disk_read_per_byte_ms * avg_bytes
        return ParallelCollectionRDD(self, data, num_partitions, name=name,
                                     read_cost_per_record_ms=read_ms)

    # -- job execution ----------------------------------------------------------------
    def run_job(self, rdd: RDD, func: Callable[[Iterator[Any]], Any],
                name: str) -> list[Any]:
        return self.scheduler.run_job(rdd, func, name)

    def executor_for(self, split: int, attempt: int = 0) -> Executor:
        """The executor hosting *split*'s next attempt.

        Retries rotate to the next executor so a task does not land on
        the same (possibly just-crashed) process it died on.
        """
        return self.executors[(split + attempt) % len(self.executors)]

    # -- planning hooks (the optimizer plans every mode) ----------------------------
    def plan_cache(self, rdd: RDD) -> ContainerPlan:
        """Decide how *rdd*'s blocks are stored."""
        return self._optimizer.plan_cache(rdd)

    def plan_shuffle(self, dep: ShuffleDependency) -> ContainerPlan:
        """Decide how *dep*'s buffers are stored."""
        return self._optimizer.plan_shuffle(dep)

    # -- cache materialization ------------------------------------------------------------
    def _cached_iterator(self, rdd: RDD, split: int,
                         task: TaskContext) -> Iterator[Any]:
        executor = task.executor
        key = (rdd.rdd_id, split)
        if executor.cache.contains(key):
            yield from executor.cache.read_records(key)
            return
        records = list(rdd.compute(split, task))
        block = self._build_block(rdd, key, records, task)
        executor.cache.put(block)
        yield from records

    def _build_block(self, rdd: RDD, key: tuple[int, int], records: list,
                     task: TaskContext) -> CachedBlock:
        executor = task.executor
        plan = self.plan_cache(rdd)
        info = rdd.udt_info
        if records and info is not None and info.static_fixed:
            # Every record measures the same: one measure, times the count.
            one = rdd.measure_record(records[0])
            footprint = RecordFootprint(
                one.objects * len(records), one.object_bytes * len(records),
                one.data_bytes * len(records))
        else:
            objects = object_bytes = data_bytes = 0
            for record in records:
                measured = rdd.measure_record(record)
                objects += measured.objects
                object_bytes += measured.object_bytes
                data_bytes += measured.data_bytes
            footprint = RecordFootprint(objects, object_bytes, data_bytes)
        if plan.strategy is StorageStrategy.OBJECTS:
            group = executor.heap.new_group(f"cache:{key}", Lifetime.PINNED)
            # Records were allocated one by one while the UDF produced
            # them; charge the block's graph as young allocations that a
            # scavenge will promote (the long-living cohort of §2.2).
            per_record = max(1, footprint.objects // max(1, len(records)))
            per_bytes = footprint.object_bytes // max(1, len(records))
            for _ in range(len(records)):
                executor.heap.allocate(group, per_record, per_bytes)
            return CachedBlock(
                key=key, plan=plan, records=records, blob=None,
                page_group=None, record_count=len(records),
                memory_bytes=footprint.object_bytes,
                disk_bytes=footprint.serialized_bytes,
                footprint=footprint, alloc_group=group)
        if plan.strategy is StorageStrategy.SERIALIZED:
            executor.serializer.kryo_serialize(
                footprint.objects, footprint.serialized_bytes)
            blob = None
            if plan.schema is not None:
                blob = plan.pack(records)
                memory_bytes = len(blob)
            else:
                memory_bytes = footprint.serialized_bytes
            group = executor.heap.new_group(f"cache:{key}", Lifetime.PINNED)
            executor.heap.allocate(group, 2, memory_bytes)
            return CachedBlock(
                key=key, plan=plan,
                records=records if blob is None else None,
                blob=blob, page_group=None, record_count=len(records),
                memory_bytes=memory_bytes,
                disk_bytes=footprint.serialized_bytes,
                footprint=footprint, alloc_group=group)
        # DECA_PAGES
        if plan.schema is None:
            raise ExecutionError(
                f"Deca page plan for {rdd.name!r} lacks a schema")
        group = executor.memory_manager.new_page_group(
            f"cache:{key}", evictable=True)
        group.append_records(plan.schema, records)
        group.trim()  # sealed block: give the last page's tail back
        executor.serializer.deca_write(len(records), group.used_bytes)
        return CachedBlock(
            key=key, plan=plan, records=None, blob=None,
            page_group=group, record_count=len(records),
            memory_bytes=group.allocated_bytes,
            disk_bytes=group.used_bytes,
            footprint=footprint, alloc_group=None)

    def _is_deca_transformed(self, rdd: RDD) -> bool:
        """Did the optimizer rewrite this RDD's input access (Fig. 12)?

        True when an input of *rdd*'s stage — the nearest cached ancestor
        or input shuffle along any narrow path (a co-partitioned join has
        two) — is stored decomposed in DECA mode.
        """
        # A stage whose input shuffle is decomposed is rewritten to read
        # the buffer bytes directly.
        return self.mode is ExecutionMode.DECA and any(
            plan.decomposed for plan in self.input_plans(rdd))

    def input_plans(self, rdd: RDD) -> Iterator[ContainerPlan]:
        """The plans of what the stage computing *rdd* reads, made as
        they are yielded: its nearest cached ancestor along every narrow
        path and every shuffle those paths start from."""
        seen: set[int] = set()
        pending = [rdd]
        while pending:
            node = pending.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            if node.is_cached:
                yield self.plan_cache(node)
                continue
            for dep in node.deps:
                if not isinstance(dep, ShuffleDependency):
                    pending.append(dep.parent)
                else:
                    yield self.plan_shuffle(dep)

    # -- lifecycle bookkeeping ----------------------------------------------------------
    def _register_rdd(self, rdd: RDD) -> None:
        self._rdds[rdd.rdd_id] = rdd

    def _unpersist(self, rdd: RDD) -> None:
        for executor in self.executors:
            executor.cache.remove_rdd(rdd.rdd_id)
        self.backend.unpersist_rdd(rdd.rdd_id)

    def _record_job(self, metrics: JobMetrics) -> None:
        self._jobs.append(metrics)

    # -- profiling ----------------------------------------------------------------------
    def enable_profiling(self, tracked_prefix: str | None = None
                         ) -> list[HeapProfiler]:
        """Attach samplers to every executor (Figs. 8a/9a)."""
        return [executor.enable_profiler(self.config.profiler_period_ms,
                                         tracked_prefix)
                for executor in self.executors]

    # -- results ---------------------------------------------------------------------------
    @property
    def wall_ms(self) -> float:
        return ticks_to_ms(max(e.clock.ticks for e in self.executors))

    def cached_bytes_of(self, rdd: RDD) -> int:
        """In-memory footprint of *rdd*'s cached blocks (cache-size bars)."""
        total = 0
        for executor in self.executors:
            for key, block in executor.cache.blocks.items():
                if key[0] == rdd.rdd_id and not block.on_disk:
                    total += block.memory_bytes
        return total

    def swapped_bytes_of(self, rdd: RDD) -> int:
        total = 0
        for executor in self.executors:
            for key, block in executor.cache.blocks.items():
                if key[0] == rdd.rdd_id and block.on_disk:
                    total += block.disk_bytes
        return total

    def finish(self) -> RunMetrics:
        """Collect the run's metrics (the numbers the figures report)."""
        for executor in self.executors:
            if executor.profiler is not None:
                executor.profiler.force_sample()
        run = RunMetrics(jobs=list(self._jobs), wall_ms=self.wall_ms)
        for executor in self.executors:
            stats = executor.heap.stats
            run.executor_gc_ms[executor.executor_id] = stats.pause_ms
            run.executor_concurrent_gc_ms[executor.executor_id] = \
                stats.concurrent_ms
            run.minor_gc_count += stats.minor_count
            run.full_gc_count += stats.full_count
            run.swapped_cache_bytes += executor.cache.swapped_bytes_total
            run.spilled_shuffle_bytes += executor.spilled_shuffle_bytes
        # Teardown: the mp backend unlinks every shared segment it still
        # owns (the CI leak guard checks /dev/shm is clean afterwards).
        # The stats snapshot is taken after teardown so ``segments_live``
        # reports what the run actually leaked — zero, or a bug.
        self.backend.shutdown()
        run.backend = dict(self.backend.stats.to_dict())
        # Cold-tier teardown: sum each executor's tier snapshot (empty
        # for a tier that holds no file), then close it (fd + unlink).
        for executor in self.executors:
            for key, value in executor.cold_tier.snapshot().items():
                run.tier[key] = run.tier.get(key, 0) + value
            executor.cold_tier.close()
        for rdd in self._rdds.values():
            if rdd.is_cached:
                nbytes = self.cached_bytes_of(rdd)
                if nbytes:
                    run.cached_bytes[rdd.name] = \
                        run.cached_bytes.get(rdd.name, 0) + nbytes
        if self.sanitizer is not None:
            # The audit runs after backend/tier teardown, so shutdown-path
            # bugs (orphan sweeps, late unlinks) are checked too; any
            # violation fails the run loudly — a silently wrong result is
            # the failure mode the sanitizer exists to prevent.
            run.sanitize = self.sanitizer.check_finish()
            if run.sanitize["violations"]:
                from ..obs.sanitizer import SLUGS
                raise SanitizerError({slug: run.sanitize[slug]
                                      for slug in SLUGS})
        return run
