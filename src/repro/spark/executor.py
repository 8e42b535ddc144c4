"""Executors: one simulated JVM process each.

An executor bundles a clock, a simulated heap, the block cache, the Deca
memory manager and a serializer model.  Tasks charge their compute/I-O
costs here in ticks read from the executor's price table, which divides
every cost by the executor's task slots once (the concurrent task slots
of a real executor), while GC pauses — which stop every thread — land at
full price via the heap.
"""

from __future__ import annotations

from typing import Any, Iterator, TYPE_CHECKING

from ..config import DecaConfig
from ..errors import DecaError, ExecutorLostError, TaskKilledError
from ..jvm.heap import SimHeap
from ..jvm.objects import AllocationGroup, Lifetime
from ..jvm.stats import GcEvent
from ..memory.manager import DecaMemoryManager
from ..memory.tier import ColdTier, cold_tier_for
from ..memory.unified import create_memory_arena
from ..obs import Tracer
from ..simtime import Prices, SimClock
from .cache import CacheStore
from .faults import EXECUTOR_CRASH, FaultInjector, TaskFaultPlan
from .profiler import HeapProfiler
from .serializer import SerializerModel
from .shuffle import ShuffleBlockStore, read_reduce_partition

if TYPE_CHECKING:
    from ..obs.sanitizer import Sanitizer
    from .metrics import TaskMetrics
    from .scheduler import TaskContext


class FaultCountdown:
    """An armed attempt's countdown, shared by the sim ``Executor`` and
    the mp ``WorkerExecutor``: each ``charge_compute`` ticks it while a
    plan is armed.  Workers arm task kills only (their task runner
    crashes the process), so the crash branch runs in the sim alone."""

    executor_id: int
    alive: bool
    _current_task: "TaskContext | None"
    _fault_plan: TaskFaultPlan | None
    _fault_countdown: int

    def arm_fault(self, plan: TaskFaultPlan) -> None:
        """Schedule the current task attempt to fail.

        The failure strikes after ``plan.after_ops`` compute charges, so a
        non-zero countdown kills the attempt *mid-computation*, leaving
        partial heap/buffer state for the recovery path to clean up.
        """
        self._fault_plan = plan
        self._fault_countdown = plan.after_ops

    def disarm_fault(self) -> None:
        self._fault_plan = None
        self._fault_countdown = 0

    @property
    def fault_armed(self) -> bool:
        """Is a fault plan armed for the current attempt?  Then every
        compute charge must be one op, so the kill strikes where the
        countdown says."""
        return self._fault_plan is not None

    def _tick_fault(self) -> None:
        """One compute charge of an armed attempt (``charge_compute``
        calls this only while a plan is armed)."""
        plan = self._fault_plan
        if self._fault_countdown > 0:
            self._fault_countdown -= 1
            return
        self.disarm_fault()
        if plan.kind == EXECUTOR_CRASH:
            self.alive = False
            raise ExecutorLostError(self.executor_id)
        metrics = (self._current_task.metrics
                   if self._current_task is not None else None)
        raise TaskKilledError(
            metrics.stage_id if metrics else -1,
            metrics.task_id if metrics else -1,
            metrics.attempt if metrics else 0)


class Executor(FaultCountdown):
    """One worker process with its own heap and clock."""

    def __init__(self, executor_id: int, config: DecaConfig,
                 shuffle_store: ShuffleBlockStore,
                 tracer: Tracer | None = None,
                 sanitizer: Sanitizer | None = None) -> None:
        self.executor_id = executor_id
        self.config = config
        self.clock = SimClock()
        # Shared per-run tracer; executor events use pid executor_id + 1
        # (pid 0 is the driver timeline).
        self.tracer = tracer if tracer is not None else Tracer()
        self.trace_pid = executor_id + 1
        self.heap = SimHeap(config, self.clock, f"executor-{executor_id}")
        self.heap.add_gc_listener(self._on_gc_event)
        # The memory arena is the single accounting plane for cache
        # blocks, shuffle buffers and Deca page groups: a static split or
        # Spark 1.6's execution/storage borrowing, behind one interface
        # (docs/memory_model.md).
        self.arena = create_memory_arena(
            config, clock=self.clock, tracer=self.tracer,
            pid=executor_id + 1)
        # The run's sanitizer (None unless config.sanitize, so the hot
        # paths pay a single ``is None`` test): the arena, the cache and
        # the cold tier report to it.
        self.sanitizer = self.arena.sanitizer = sanitizer
        self.memory_manager = DecaMemoryManager(config, self.heap,
                                                self.arena)
        self.prices = Prices(config)
        self.serializer = SerializerModel(self.prices, self.clock)
        self.cache = CacheStore(self)
        self.serializer.on_deserialize = self._attribute_deser_time
        self.shuffle_store = shuffle_store
        # One pressure plane: the arena evicts its storage LRU (and, when
        # unified, then spills execution consumers, largest first).
        self.heap.add_pressure_handler(self.arena.release_for_pressure)
        self.profiler: HeapProfiler | None = None
        self._temp_group: AllocationGroup | None = None
        self._current_task: "TaskContext | None" = None
        # Cold-tier ticks for the tier's snapshot (``tier_ms``): the tier
        # also moves bytes outside any task (the SQL engine's swaps).
        self.tier_ticks = 0
        # Shuffle bytes spilled by this executor's successful attempts.
        self.spilled_shuffle_bytes = 0
        # Where swapped cache blocks and shuffle spills go; it charges
        # its I/O back to this executor (docs/memory_model.md).
        self.cold_tier: ColdTier = cold_tier_for(self)
        # -- fault tolerance state --
        self.alive = True
        self.lost_count = 0
        # Set by the context; consulted on shuffle-fetch corruption.
        self.fault_injector: FaultInjector | None = None
        self._fault_plan: TaskFaultPlan | None = None
        self._fault_countdown = 0

    def _on_gc_event(self, event: GcEvent) -> None:
        """Forward one heap collection into the run's trace."""
        self.tracer.complete(
            f"gc:{event.kind.value}", "gc",
            ts_ticks=event.start_ticks, dur_ticks=event.total_ticks,
            pid=self.trace_pid,
            executor_id=self.executor_id,
            kind=event.kind.value,
            pause_ms=event.pause_ms,
            concurrent_ms=event.concurrent_ms,
            traced_objects=event.traced_objects,
            reclaimed_bytes=event.reclaimed_bytes,
            promoted_bytes=event.promoted_bytes,
            live_objects_after=event.live_objects_after,
            heap_used_bytes=event.used_bytes_after)

    def _attribute_deser_time(self, ticks: int) -> None:
        if self._current_task is not None:
            self._current_task.metrics.deser_ticks += ticks

    # -- profiling --------------------------------------------------------------
    def enable_profiler(self, period_ms: float,
                        tracked_prefix: str | None = None) -> HeapProfiler:
        """Attach a JProfiler-style sampler (Figs. 8a/9a)."""
        def tracked() -> int:
            if tracked_prefix is None:
                return self.heap.live_objects
            return self.live_objects_matching(tracked_prefix)
        self.profiler = HeapProfiler(self.heap, self.clock, period_ms,
                                     tracked_counter=tracked)
        return self.profiler

    def live_objects_matching(self, prefix: str) -> int:
        """Live objects in allocation groups whose name has *prefix*."""
        return sum(g.live_objects for g in self.heap._groups.values()
                   if g.name.startswith(prefix))

    def _sample(self) -> None:
        if self.profiler is not None:
            self.profiler.maybe_sample()

    # -- cost charging -------------------------------------------------------------
    def charge_compute(self, ticks: int) -> None:
        # The per-record charge: the fault tick and the profiler sample
        # are spelled as the ``is not None`` tests they start with, and
        # the clock is advanced in place — ``SimClock.advance``'s check
        # and addition, without its call.
        if self._fault_plan is not None:
            self._tick_fault()
        if ticks < 0:
            raise DecaError(f"cannot advance clock by {ticks} ticks")
        self.clock.ticks += ticks
        task = self._current_task
        if task is not None:
            task.metrics.compute_ticks += ticks
        if self.profiler is not None:
            self.profiler.maybe_sample()

    def _charge_io(self, ticks: int, nbytes: int,
                   event: str) -> "TaskMetrics | None":
        """Advance the clock by one modelled transfer of *nbytes* and
        trace it as *event* (``<device>:<what>``, in category
        ``io.<device>``); returns the running task's metrics, if any,
        for the caller's tally."""
        start = self.clock.ticks
        self.clock.advance(ticks)
        self.tracer.complete(event, f"io.{event.split(':')[0]}",
                             ts_ticks=start, dur_ticks=ticks,
                             pid=self.trace_pid, nbytes=nbytes)
        self._sample()
        task = self._current_task
        return task.metrics if task is not None else None

    def charge_disk_write(self, nbytes: int) -> None:
        p = self.prices
        ticks = p.disk_seek + p.disk_write_per_byte * nbytes
        metrics = self._charge_io(ticks, nbytes, "disk:write")
        if metrics is not None:
            metrics.shuffle_write_ticks += ticks

    def charge_disk_read(self, nbytes: int) -> None:
        p = self.prices
        ticks = p.disk_seek + p.disk_read_per_byte * nbytes
        metrics = self._charge_io(ticks, nbytes, "disk:read")
        if metrics is not None:
            metrics.shuffle_read_ticks += ticks

    def charge_tier_write(self, nbytes: int) -> None:
        """Charge moving bytes into the mmap cold tier: memory-bus
        bandwidth, no seek — the point of not serializing to disk."""
        if nbytes > 0:
            self._charge_tier(self.prices.tier_write_per_byte * nbytes,
                              nbytes, "tier:write")

    def charge_tier_read(self, nbytes: int) -> None:
        if nbytes > 0:
            self._charge_tier(self.prices.tier_read_per_byte * nbytes,
                              nbytes, "tier:read")

    def _charge_tier(self, ticks: int, nbytes: int, event: str) -> None:
        self.tier_ticks += ticks
        self._charge_io(ticks, nbytes, event)

    def charge_network(self, nbytes: int) -> None:
        p = self.prices
        ticks = p.network_rtt + p.network_per_byte * nbytes
        metrics = self._charge_io(ticks, nbytes, "net:transfer")
        if metrics is not None:
            metrics.shuffle_read_ticks += ticks

    # -- allocation helpers -----------------------------------------------------------
    def alloc_temp(self, objects: int, nbytes: int) -> None:
        """Allocate short-lived UDF objects into the task's temp group."""
        if objects <= 0 and nbytes <= 0:
            return
        group = self._temp_group
        if group is None or group.freed:
            group = self._temp_group = self.heap.new_group(
                "udf-temp", Lifetime.TEMPORARY)
        self.charge_compute(self.prices.object_alloc * objects)
        self.heap.allocate(group, objects, nbytes)
        if self.profiler is not None:
            self.profiler.maybe_sample()

    def new_pinned_group(self, name: str) -> AllocationGroup:
        return self.heap.new_group(name, Lifetime.PINNED)

    def free_pinned_group(self, group: AllocationGroup) -> None:
        if not group.freed:
            self.heap.free_group(group)

    # -- task lifecycle ------------------------------------------------------------
    def begin_task(self, task: "TaskContext") -> None:
        self._current_task = task
        task._start_ticks = self.clock.ticks
        task._gc_start_ticks = self.heap.stats.pause_ticks
        task._arena_key = self.arena.task_started()
        self._temp_group = self.heap.new_group(
            "udf-temp", Lifetime.TEMPORARY)

    def end_task(self, task: "TaskContext",
                 status: str = "success") -> None:
        # UDF locals die with the task (§4.2).
        if self._temp_group is not None and not self._temp_group.freed:
            self.heap.free_group(self._temp_group)
        self._temp_group = None
        if task._arena_key is not None:
            # Unreleased execution grants die with the task.
            self.arena.task_finished(task._arena_key)
            task._arena_key = None
        task.metrics.duration_ticks = self.clock.ticks - task._start_ticks
        task.metrics.gc_pause_ticks = (self.heap.stats.pause_ticks
                                       - task._gc_start_ticks)
        task.metrics.executor_id = self.executor_id
        task.metrics.status = status
        if status == "success":
            self.spilled_shuffle_bytes += task.spilled_bytes
        self._emit_task_span(task)
        self._current_task = None
        self.disarm_fault()
        self._sample()

    def _emit_task_span(self, task: "TaskContext") -> None:
        metrics = task.metrics
        self.tracer.complete(
            f"task:{metrics.stage_id}.{metrics.task_id}"
            f".{metrics.attempt}", "task",
            ts_ticks=task._start_ticks, dur_ticks=metrics.duration_ticks,
            pid=self.trace_pid,
            stage_id=metrics.stage_id, task_id=metrics.task_id,
            attempt=metrics.attempt, status=metrics.status,
            speculative=metrics.speculative,
            gc_pause_ms=metrics.gc_pause_ms,
            heap_used_bytes=(self.heap.young_used_bytes
                             + self.heap.old_used_bytes))

    def abort_task(self, task: "TaskContext", status: str) -> None:
        """Tear down a failed task attempt.

        Mirrors :meth:`end_task` — the attempt's UDF temporaries become
        garbage, its partial metrics are finalized and stamped with the
        failure *status* — without producing a result.  The aborted
        attempt's span lands in the trace with that status.
        """
        self.end_task(task, status=status)

    def restart(self, delay_ticks: int) -> None:
        """Bring a crashed executor back as a fresh process.

        The crash loses everything in the old process: cached blocks are
        invalidated (their heap groups freed) and the scheduler separately
        unregisters this executor's shuffle outputs.  The simulated clock
        pays the restart delay; GC statistics keep accumulating across the
        restart so run-level metrics and profiler timelines stay monotone.
        """
        restart_start = self.clock.ticks
        self.cache.invalidate_all()
        if self._temp_group is not None and not self._temp_group.freed:
            self.heap.free_group(self._temp_group)
        self._temp_group = None
        self._current_task = None
        self.disarm_fault()
        self.clock.advance(delay_ticks)
        self.lost_count += 1
        self.alive = True
        self.tracer.complete("executor:restart", "fault",
                             ts_ticks=restart_start, dur_ticks=delay_ticks,
                             pid=self.trace_pid,
                             executor_id=self.executor_id,
                             lost_count=self.lost_count)
        self._sample()

    # -- shuffle read -----------------------------------------------------------------
    def read_shuffle(self, shuffle_id: int, reduce_part: int,
                     task: "TaskContext") -> Iterator[tuple[Any, Any]]:
        return read_reduce_partition(self, self.shuffle_store, shuffle_id,
                                     reduce_part, task)

    def __repr__(self) -> str:
        return (f"Executor(#{self.executor_id}, "
                f"t={self.clock.now_ms:.1f} ms)")
