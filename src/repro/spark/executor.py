"""Executors: one simulated JVM process each.

An executor bundles a clock, a simulated heap, the block cache, the Deca
memory manager and a serializer model.  Tasks charge their compute/I-O
costs here; charges are divided by the executor's task parallelism (the
concurrent task slots of a real executor), while GC pauses — which stop
every thread — land at full price via the heap.
"""

from __future__ import annotations

from typing import Any, Iterator, TYPE_CHECKING

from ..config import DecaConfig
from ..errors import DecaError, ExecutorLostError, TaskKilledError
from ..jvm.heap import SimHeap
from ..jvm.objects import AllocationGroup, Lifetime
from ..jvm.stats import GcEvent
from ..memory.manager import DecaMemoryManager
from ..memory.provenance import ProvenanceLedger
from ..memory.tier import PageStoreTier
from ..memory.unified import UnifiedMemoryManager, create_memory_arena
from ..obs import Tracer
from ..obs.vclock import VClockChecker
from ..simtime import SimClock
from .cache import CacheStore
from .faults import EXECUTOR_CRASH, FaultInjector, TaskFaultPlan
from .profiler import HeapProfiler
from .serializer import SerializerModel
from .shuffle import ShuffleBlockStore, read_reduce_partition

if TYPE_CHECKING:
    from .scheduler import TaskContext


class Executor:
    """One worker process with its own heap and clock."""

    def __init__(self, executor_id: int, config: DecaConfig,
                 shuffle_store: ShuffleBlockStore,
                 tracer: Tracer | None = None) -> None:
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
        # blocks, shuffle buffers and Deca page groups.  In static mode
        # it only tracks the shared shuffle pool; in unified mode it
        # arbitrates execution/storage borrowing (docs/memory_model.md).
        self.arena = create_memory_arena(
            config, clock=self.clock, tracer=self.tracer,
            pid=executor_id + 1)
        unified = (self.arena
                   if isinstance(self.arena, UnifiedMemoryManager) else None)
        self.memory_manager = DecaMemoryManager(config, self.heap,
                                                arena=unified)
        self.serializer = SerializerModel(
            config.serializer, self.clock,
            parallelism=config.tasks_per_executor)
        # Runtime alias sanitizer: one provenance ledger per executor
        # records every exported zero-copy view (None when off, so the
        # hot paths pay a single ``is None`` test).
        self.ledger: ProvenanceLedger | None = None
        if config.sanitize:
            self.ledger = ProvenanceLedger(
                tracer=self.tracer, clock=self.clock, pid=self.trace_pid)
        # Vector-clock race sanitizer: set by the context (one shared
        # driver checker per run), threaded into the cold tier and the
        # unified arena.  None unless config.sanitize.
        self.vclock: VClockChecker | None = None
        self.cache = CacheStore(self)
        self.serializer.on_charge = self._attribute_serializer_time
        self.shuffle_store = shuffle_store
        if unified is not None:
            # One pressure plane: the arena evicts storage LRU (cache
            # blocks and page groups alike), then spills execution
            # consumers, largest first.
            self.heap.add_pressure_handler(unified.release_for_pressure)
        else:
            self.heap.add_pressure_handler(self.cache.release_for_pressure)
        self.parallelism = max(1, config.tasks_per_executor)
        self._object_alloc_ms = config.cpu.object_alloc_ms
        self.profiler: HeapProfiler | None = None
        self._temp_group: AllocationGroup | None = None
        self._current_task: "TaskContext | None" = None
        # Cumulative I/O time (for Fig. 11 breakdowns).
        self.disk_ms_total = 0.0
        self.network_ms_total = 0.0
        self.tier_ms_total = 0.0
        # Shuffle bytes spilled by this executor's successful attempts.
        self.spilled_shuffle_bytes = 0
        # The mmap cold tier, created lazily on first swap so runs that
        # never swap never touch the filesystem (cold_tier="heap" keeps
        # this None forever).
        self._cold_tier: PageStoreTier | None = None
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
            ts_ms=event.start_ms, dur_ms=event.total_cost_ms,
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

    def _attribute_serializer_time(self, kind: str, ms: float) -> None:
        if self._current_task is None:
            return
        if kind == "ser":
            self._current_task.metrics.ser_ms += ms
        else:
            self._current_task.metrics.deser_ms += ms

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

    # -- fault injection ---------------------------------------------------------
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

    # -- cost charging -------------------------------------------------------------
    def charge_compute(self, ms: float) -> None:
        # The per-record charge: the fault tick and the profiler sample
        # are spelled as the ``is not None`` tests they start with, and
        # the clock is advanced in place — ``SimClock.advance``'s check
        # and addition, without its call.
        if self._fault_plan is not None:
            self._tick_fault()
        ms /= self.parallelism
        if ms < 0:
            raise DecaError(f"cannot advance clock by {ms} ms")
        self.clock._now_ms += ms
        task = self._current_task
        if task is not None:
            task.metrics.compute_ms += ms
        if self.profiler is not None:
            self.profiler.maybe_sample()

    def charge_disk_write(self, nbytes: int) -> None:
        io = self.config.io
        ms = (io.disk_seek_ms + io.disk_write_per_byte_ms * nbytes) \
            / self.parallelism
        start_ms = self.clock.now_ms
        self.clock.advance(ms)
        self.disk_ms_total += ms
        if self._current_task is not None:
            self._current_task.metrics.shuffle_write_ms += ms
        self.tracer.complete("disk:write", "io.disk", ts_ms=start_ms,
                             dur_ms=ms, pid=self.trace_pid, nbytes=nbytes)
        self._sample()

    def charge_disk_read(self, nbytes: int) -> None:
        io = self.config.io
        ms = (io.disk_seek_ms + io.disk_read_per_byte_ms * nbytes) \
            / self.parallelism
        start_ms = self.clock.now_ms
        self.clock.advance(ms)
        self.disk_ms_total += ms
        if self._current_task is not None:
            self._current_task.metrics.shuffle_read_ms += ms
        self.tracer.complete("disk:read", "io.disk", ts_ms=start_ms,
                             dur_ms=ms, pid=self.trace_pid, nbytes=nbytes)
        self._sample()

    def charge_tier_write(self, nbytes: int) -> None:
        """Charge moving bytes into the mmap cold tier: memory-bus
        bandwidth, no seek — the point of not serializing to disk."""
        if nbytes <= 0:
            return
        ms = self.config.io.tier_write_per_byte_ms * nbytes \
            / self.parallelism
        start_ms = self.clock.now_ms
        self.clock.advance(ms)
        self.tier_ms_total += ms
        if self._current_task is not None:
            self._current_task.metrics.cache_io_ms += ms
        self.tracer.complete("tier:write", "io.tier", ts_ms=start_ms,
                             dur_ms=ms, pid=self.trace_pid, nbytes=nbytes)
        self._sample()

    def charge_tier_read(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        ms = self.config.io.tier_read_per_byte_ms * nbytes \
            / self.parallelism
        start_ms = self.clock.now_ms
        self.clock.advance(ms)
        self.tier_ms_total += ms
        if self._current_task is not None:
            self._current_task.metrics.cache_io_ms += ms
        self.tracer.complete("tier:read", "io.tier", ts_ms=start_ms,
                             dur_ms=ms, pid=self.trace_pid, nbytes=nbytes)
        self._sample()

    @property
    def cold_tier(self) -> PageStoreTier | None:
        """The executor's mmap cold tier, or ``None`` under ``"heap"``."""
        if self.config.cold_tier != "mmap":
            return None
        if self._cold_tier is None:
            self._cold_tier = PageStoreTier(
                tracer=self.tracer, clock=self.clock, pid=self.trace_pid,
                tag=f"e{self.executor_id}", ledger=self.ledger,
                vclock=self.vclock)
        return self._cold_tier

    def charge_network(self, nbytes: int) -> None:
        io = self.config.io
        ms = (io.network_rtt_ms + io.network_per_byte_ms * nbytes) \
            / self.parallelism
        start_ms = self.clock.now_ms
        self.clock.advance(ms)
        self.network_ms_total += ms
        if self._current_task is not None:
            self._current_task.metrics.shuffle_read_ms += ms
        self.tracer.complete("net:transfer", "io.net", ts_ms=start_ms,
                             dur_ms=ms, pid=self.trace_pid, nbytes=nbytes)
        self._sample()

    # -- allocation helpers -----------------------------------------------------------
    def alloc_temp(self, objects: int, nbytes: int) -> None:
        """Allocate short-lived UDF objects into the task's temp group."""
        if objects <= 0 and nbytes <= 0:
            return
        group = self._temp_group
        if group is None or group.freed:
            group = self._temp_group = self.heap.new_group(
                "udf-temp", Lifetime.TEMPORARY)
        self.charge_compute(self._object_alloc_ms * objects)
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
        task._start_ms = self.clock.now_ms
        task._gc_start_ms = self.heap.stats.pause_ms
        if isinstance(self.arena, UnifiedMemoryManager):
            task._arena_key = self.arena.task_started()
        self._temp_group = self.heap.new_group(
            "udf-temp", Lifetime.TEMPORARY)

    def end_task(self, task: "TaskContext",
                 status: str = "success") -> None:
        # UDF locals die with the task (§4.2).
        if self._temp_group is not None and not self._temp_group.freed:
            self.heap.free_group(self._temp_group)
        self._temp_group = None
        arena_key = getattr(task, "_arena_key", None)
        if (arena_key is not None
                and isinstance(self.arena, UnifiedMemoryManager)):
            # Unreleased execution grants die with the task.
            self.arena.task_finished(arena_key)
            task._arena_key = None
        task.metrics.duration_ms = self.clock.now_ms - task._start_ms
        task.metrics.gc_pause_ms = (self.heap.stats.pause_ms
                                    - task._gc_start_ms)
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
            ts_ms=task._start_ms, dur_ms=metrics.duration_ms,
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

    def restart(self, restart_delay_ms: float) -> None:
        """Bring a crashed executor back as a fresh process.

        The crash loses everything in the old process: cached blocks are
        invalidated (their heap groups freed) and the scheduler separately
        unregisters this executor's shuffle outputs.  The simulated clock
        pays the restart delay; GC statistics keep accumulating across the
        restart so run-level metrics and profiler timelines stay monotone.
        """
        restart_start_ms = self.clock.now_ms
        self.cache.invalidate_all()
        if self._temp_group is not None and not self._temp_group.freed:
            self.heap.free_group(self._temp_group)
        self._temp_group = None
        self._current_task = None
        self.disarm_fault()
        self.clock.advance(restart_delay_ms)
        self.lost_count += 1
        self.alive = True
        self.tracer.complete("executor:restart", "fault",
                             ts_ms=restart_start_ms,
                             dur_ms=restart_delay_ms, pid=self.trace_pid,
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
