"""DecaContext — the application entry point (SparkContext analogue).

A context owns the simulated cluster (executors with heaps and clocks), the
shuffle service, the DAG scheduler and — in ``DECA`` mode — the runtime
optimizer that plans cache/shuffle decomposition per job (the hybrid
optimization of Appendix A: plans are made when a dataset is first
materialized, using the UDT analysis plus runtime symbol bindings).

Typical use::

    ctx = DecaContext(DecaConfig(mode=ExecutionMode.DECA))
    points = ctx.parallelize(data, 8).map(parse).with_udt(info).cache()
    for _ in range(30):
        gradient = points.map(gradient_of).reduce(add)
    report = ctx.finish()
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Callable, Iterable, Iterator

from ..analysis.size_type import SizeType
from ..config import DecaConfig, ExecutionMode
from ..core.plan import ContainerPlan, StorageStrategy
from ..errors import ExecutionError, MemoryLayoutError, SanitizerError
from ..exec import create_backend
from ..jvm.objects import Lifetime
from ..memory.layout import build_schema
from ..memory.provenance import VIOLATION_SLUGS, ProvenanceLedger
from ..obs import Tracer
from ..obs.vclock import RACE_SLUGS, VClockChecker
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


def stable_hash(key: Any) -> int:
    """A hash for partitioning.

    Process-independent for ``None``, ``bool``, ``int``, ``float``,
    ``str`` and ``bytes`` (subclasses included) and for tuples of those,
    so a key lands in the same partition in every run.  Any other key
    falls back to ``hash()``, which is process-local wherever that is:
    address-based for plain objects, salted for a ``frozenset`` of
    strings, by member name for a non-``int`` enum.
    """
    # The two everyday key types first, by exact type (``bool`` is not
    # ``int`` here, so ``True`` still takes the branch below).
    kind = type(key)
    if kind is str:
        return zlib.crc32(key.encode("utf-8"))
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
        return hash(key) & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        acc = 97
        for item in key:
            acc = (acc * 31 + stable_hash(item)) & 0x7FFFFFFF
        return acc
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
        self.executors = [
            Executor(i, self.config, self.shuffle_store,
                     tracer=self.tracer)
            for i in range(self.config.num_executors)
        ]
        for executor in self.executors:
            executor.fault_injector = self.fault_injector
        self.scheduler = DAGScheduler(self)
        # Driver-side alias sanitizer: audits shm segment ownership (the
        # mp backend's registry); executors carry their own ledgers for
        # mmap extents.  None unless config.sanitize — zero overhead off.
        self.ledger: ProvenanceLedger | None = None
        # Vector-clock race sanitizer (docs/static_analysis.md): one
        # driver-side checker per run; mp workers carry forked replicas
        # whose notes are absorbed with each result message.
        self.vclock: VClockChecker | None = None
        if self.config.sanitize:
            self.ledger = ProvenanceLedger(tracer=self.tracer)
            self.vclock = VClockChecker(actor="driver",
                                        tracer=self.tracer)
            for executor in self.executors:
                executor.vclock = self.vclock
                executor.arena.vclock = self.vclock
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
        # Every container's plan, made when a job first materializes it:
        # ("cache", rdd_id) / ("shuffle", shuffle_id) -> plan, in creation
        # order.  The optimizer fills it in DECA mode, the context itself
        # for the Spark baselines.
        self._plans: dict[tuple[str, int], ContainerPlan] = {}
        self._optimizer = None
        if self.mode is ExecutionMode.DECA:
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
        avg_bytes = (sum(len(line) for line in data) / len(data)
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

    # -- planning hooks (mode dispatch) ------------------------------------------------
    def plan_cache(self, rdd: RDD) -> ContainerPlan:
        """Decide how *rdd*'s blocks are stored."""
        if self._optimizer is not None:
            return self._optimizer.plan_cache(rdd)
        key = ("cache", rdd.rdd_id)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._baseline_cache_plan(rdd)
        return plan

    def plan_shuffle(self, dep: ShuffleDependency) -> ContainerPlan:
        """Decide how *dep*'s buffers are stored."""
        if self._optimizer is not None:
            return self._optimizer.plan_shuffle(dep)
        key = ("shuffle", dep.shuffle_id)
        plan = self._plans.get(key)
        if plan is None:
            info = dep.parent.udt_info
            # Spark 1.6 has no in-memory serialized shuffle buffers; both
            # Spark and SparkSer shuffle object graphs (§6.5).
            plan = self._plans[key] = ContainerPlan(
                target=f"shuffle:{dep.shuffle_id}:{dep.parent.name}",
                udt=info.udt.name if info else None,
                local_size_type=None, global_size_type=None,
                decomposed=False,
                reason=f"{self.mode.value} shuffles object graphs",
                measure=dep.parent.measure_record, tag=dep.tag)
        return plan

    def _baseline_cache_plan(self, rdd: RDD) -> ContainerPlan:
        """Spark's object blocks, or SparkSer's Kryo-equivalent blobs."""
        info = rdd.udt_info
        schema = None
        if self.mode is ExecutionMode.SPARK:
            strategy = StorageStrategy.OBJECTS
            reason = "spark caches object graphs"
        else:
            strategy = StorageStrategy.SERIALIZED
            reason = "no UDT declared; the block keeps its record list"
        if strategy is StorageStrategy.SERIALIZED and info is not None:
            try:
                # A Kryo-equivalent layout (RFST shape).
                schema = build_schema(info.udt, SizeType.RUNTIME_FIXED)
                reason = "kryo-serialized in the RFST layout"
            except MemoryLayoutError as exc:
                reason = (f"layout failed: {exc}; "
                          "the block keeps its record list")
        return ContainerPlan(
            target=f"cache:{rdd.name}", udt=info.udt.name if info else None,
            local_size_type=None, global_size_type=None, decomposed=False,
            reason=reason, strategy=strategy, schema=schema,
            encode=info.encode if info else None,
            decode=info.decode if info else None)

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
        for value in plan.encoded(records):
            group.append_record(plan.schema, value)
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
        if self.mode is not ExecutionMode.DECA:
            return False
        seen: set[int] = set()
        pending = [rdd]
        while pending:
            node = pending.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            if node.is_cached:
                if self.plan_cache(node).strategy \
                        is StorageStrategy.DECA_PAGES:
                    return True
                continue
            for dep in node.deps:
                if not isinstance(dep, ShuffleDependency):
                    pending.append(dep.parent)
                elif self.plan_shuffle(dep).decomposed:
                    # A stage whose input shuffle is decomposed is
                    # rewritten to read the buffer bytes directly.
                    return True
        return False

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
        return max(e.clock.now_ms for e in self.executors)

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
        # Cold-tier teardown: sum each executor's tier stats, then close
        # (fd + unlink) — iterate the private slot so executors that
        # never swapped don't get a tier created as a side effect.
        for executor in self.executors:
            tier = executor._cold_tier
            if tier is None:
                continue
            for field_name, value in tier.stats.to_dict().items():
                run.tier[field_name] = run.tier.get(field_name, 0) + value
            run.tier["tier_ms"] = (run.tier.get("tier_ms", 0)
                                   + round(executor.tier_ms_total, 3))
            tier.close()
        for rdd in self._rdds.values():
            if rdd.is_cached:
                nbytes = self.cached_bytes_of(rdd)
                if nbytes:
                    run.cached_bytes[rdd.name] = \
                        run.cached_bytes.get(rdd.name, 0) + nbytes
        if self.config.sanitize:
            # Fold every ledger's end-of-run audit into one summary; any
            # violation anywhere fails the run loudly — a silently wrong
            # result is the failure mode the sanitizer exists to prevent.
            ledgers = [e.ledger for e in self.executors
                       if e.ledger is not None]
            if self.ledger is not None:
                ledgers.append(self.ledger)
            for ledger in ledgers:
                for name, count in ledger.check_finish().items():
                    run.sanitize[name] = run.sanitize.get(name, 0) + count
            if self.vclock is not None:
                # The vclock audit runs after backend/tier teardown so
                # shutdown-path races (orphan sweeps, late unlinks) are
                # checked too.
                for name, count in self.vclock.check_finish().items():
                    run.race[name] = run.race.get(name, 0) + count
            if run.sanitize.get("violations", 0):
                raise SanitizerError({
                    slug: run.sanitize.get(slug, 0)
                    for slug in VIOLATION_SLUGS})
            if run.race.get("violations", 0):
                raise SanitizerError({
                    slug: run.race.get(slug, 0)
                    for slug in RACE_SLUGS})
        return run
