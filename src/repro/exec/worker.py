"""Worker-side task execution for the mp backend.

A worker is **forked once per job**, after the job's stage graph is
planned, so it inherits the driver's whole object graph: the RDD lineage
(closures included — nothing is pickled to ship a task), every stage's
shuffle plan, the shuffle store and the backend's cache table as they
stood at job start.  From then on it serves :class:`StageOrder` messages
on its pipe: one per stage wave, naming the splits to run and carrying
the *delta* — what earlier stages of this job registered driver-side
since the worker last heard — which the worker folds into its inherited
tables with the driver's own registration function
(:meth:`repro.exec.mp.JobState.register`).

The worker re-runs the *real data plane* of the simulated engine — the
same ``rdd.compute`` chains, the same :class:`MapSideWriter` combine
dictionaries — against a :class:`WorkerExecutor` stub whose simulated
charges are no-ops.  Because the data path is literally the same code in
the same order, mp results are bitwise identical to sim results (float
summation order included); only the *costs* differ: mp tasks are measured
in wall-clock, not simulated, milliseconds.

Outputs leave the worker two ways:

* decomposed shuffle blocks and Deca-page cache blocks are packed into
  shared-memory segments (:mod:`repro.exec.shm`) and only a
  :class:`~repro.exec.shm.SegmentRef` crosses the pipe — zero pickled
  record bytes;
* object-form blocks are pickled (and counted — this is exactly the
  serialization cost the paper's decomposition removes).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar, TYPE_CHECKING

from ..core.plan import ContainerPlan, StorageStrategy
from ..errors import TaskKilledError
from ..obs.tracer import TraceEvent, Tracer
from ..obs.vclock import VClockChecker
from ..spark.faults import EXECUTOR_CRASH, TASK_KILL, TaskFaultPlan
from ..spark.metrics import TaskMetrics
from ..spark.scheduler import TaskContext
from ..spark.shuffle import ShuffleBlockStore
from .shm import SegmentRef, pack_records_segment, unlink_segment

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from .mp import JobState

#: Exit code a worker uses for an injected executor crash, so the driver
#: can tell an injected death from an interpreter error.
CRASH_EXIT_CODE = 17


# -- messages on the pipe -----------------------------------------------------

@dataclass
class StageOrder:
    """The driver's order for one executor's share of one stage wave."""

    stage_id: int
    # split -> attempt number, in the order the worker runs them.
    attempts: dict[int, int]
    fault_plans: dict[int, TaskFaultPlan]
    # What the driver registered since this worker last heard, oldest
    # first: ``(stage_id, TaskOutput)`` for a task of an earlier stage.
    delta: list[tuple[int, TaskOutput]]
    # Send edge (race sanitizer): the driver clock as of this order.
    vclock: dict[str, int] | None = None


@dataclass
class MapBlockOut:
    """One (map, reduce) shuffle block leaving a worker."""

    reduce_part: int
    count: int
    nbytes: int
    objects: int
    merge_penalty_bytes: int
    ref: SegmentRef | None = None   # shared pages (decomposed plans)
    blob: bytes | None = None       # pickled records (object plans)


@dataclass
class CacheBlockOut:
    """One cached partition materialized by a worker task."""

    rdd_id: int
    split: int
    kind: str                       # "shm" | "packed" | "pickle"
    count: int
    ref: SegmentRef | None = None
    blob: bytes | None = None


@dataclass
class TaskOutput:
    """Everything one successful task attempt reports to the driver."""

    split: int
    attempt: int
    executor_id: int
    status: str = "success"
    duration_ms: float = 0.0
    records_read: int = 0
    map_blocks: list[MapBlockOut] = field(default_factory=list)
    cache_blocks: list[CacheBlockOut] = field(default_factory=list)
    result_blob: bytes | None = None
    events: list[TraceEvent] = field(default_factory=list)
    # Race-sanitizer notes (vclock export, sanitize mode only): the
    # worker's clock plus its recorded segment accesses for this task.
    vclock_notes: dict | None = None


@dataclass
class TaskFailure:
    """A graceful task failure (the worker survived it)."""

    split: int
    attempt: int
    executor_id: int
    status: str                     # "killed" | "error" | "executor-lost"
    message: str
    duration_ms: float = 0.0
    records_read: int = 0
    events: list[TraceEvent] = field(default_factory=list)
    vclock_notes: dict | None = None


_Outcome = TypeVar("_Outcome", TaskOutput, TaskFailure)


# -- the executor stub --------------------------------------------------------

class _NullGroup:
    __slots__ = ("name", "freed", "live_objects")

    def __init__(self, name: str) -> None:
        self.name = name
        self.freed = False
        self.live_objects = 0

    def shrink(self, nbytes: int) -> None:
        pass


class _NullHeap:
    """Absorbs heap traffic: worker memory is real, not simulated."""

    young_used_bytes = 0
    old_used_bytes = 0

    def new_group(self, name: str, lifetime: Any = None) -> _NullGroup:
        return _NullGroup(name)

    def allocate(self, group: _NullGroup, objects: int, nbytes: int) -> None:
        pass

    def free_group(self, group: _NullGroup) -> None:
        group.freed = True


class _NullArena:
    """Never over budget: workers hold real memory, they do not spill."""

    def shuffle_acquire(self, nbytes: int) -> None:
        pass

    def shuffle_release(self, nbytes: int) -> None:
        pass

    def shuffle_over_budget(self) -> bool:
        return False


class _NullSerializer:
    """Serialization inside a worker is free: decomposed data is written
    straight to shared pages and object data is pickled exactly once, at
    the process boundary (where the backend counts it)."""

    def kryo_serialize(self, objects: int, nbytes: int) -> None:
        pass

    def kryo_deserialize(self, objects: int, nbytes: int) -> None:
        pass

    def deca_write(self, objects: int, nbytes: int) -> None:
        pass

    def deca_read(self, objects: int, nbytes: int) -> None:
        pass


class _WallClock:
    """The worker's clock is the wall clock (read-only for charges)."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def now_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def advance(self, ms: float) -> None:
        pass

    def advance_to(self, ms: float) -> None:
        pass


class WorkerExecutor:
    """The executor a task sees inside an mp worker.

    Same interface as :class:`repro.spark.executor.Executor` where the
    data plane touches it; every simulated cost charge is a no-op (the
    work is real, the wall clock measures it).  Compute charges still
    tick the armed fault plan so an injected ``task-kill`` strikes
    mid-computation exactly like in the sim backend.
    """

    def __init__(self, executor_id: int, config: Any, clock: _WallClock,
                 read_shuffle_fn: Callable[[int, int], Any]) -> None:
        self.executor_id = executor_id
        self.config = config
        self.clock = clock
        self.tracer = Tracer()
        self.trace_pid = executor_id + 1
        self.heap = _NullHeap()
        self.arena = _NullArena()
        self.serializer = _NullSerializer()
        self.fault_injector = None
        self.parallelism = max(1, config.tasks_per_executor)
        self._read_shuffle_fn = read_shuffle_fn
        self._fault_plan: TaskFaultPlan | None = None
        self._fault_countdown = 0
        self._current_task: TaskContext | None = None

    # -- fault injection (task-kill only; crashes are handled by the task
    # runner because they must kill the whole process) ----------------------
    def arm_fault(self, plan: TaskFaultPlan) -> None:
        self._fault_plan = plan
        self._fault_countdown = plan.after_ops

    def disarm_fault(self) -> None:
        self._fault_plan = None
        self._fault_countdown = 0

    def _tick_fault(self) -> None:
        if self._fault_countdown > 0:
            self._fault_countdown -= 1
            return
        self.disarm_fault()
        metrics = (self._current_task.metrics
                   if self._current_task is not None else None)
        raise TaskKilledError(
            metrics.stage_id if metrics else -1,
            metrics.task_id if metrics else -1,
            metrics.attempt if metrics else 0)

    # -- charges (no-ops; the wall clock is the cost model) ------------------
    def charge_compute(self, ms: float) -> None:
        # Called once per record: unarmed, it costs this one check.
        if self._fault_plan is not None:
            self._tick_fault()

    def charge_disk_write(self, nbytes: int) -> None:
        pass

    def charge_disk_read(self, nbytes: int) -> None:
        pass

    def charge_network(self, nbytes: int) -> None:
        pass

    def alloc_temp(self, objects: int, nbytes: int) -> None:
        pass

    def new_pinned_group(self, name: str) -> _NullGroup:
        return _NullGroup(name)

    def free_pinned_group(self, group: _NullGroup) -> None:
        group.freed = True

    def read_shuffle(self, shuffle_id: int, reduce_part: int,
                     task: TaskContext) -> Any:
        return self._read_shuffle_fn(shuffle_id, reduce_part)


# -- the worker loop ----------------------------------------------------------

class _WorkerRuntime:
    """Per-process state of one forked job executor."""

    def __init__(self, state: "JobState", worker_id: int,
                 vclock_seed: dict[str, Any] | None) -> None:
        self.state = state
        self.worker_id = worker_id
        self.clock = _WallClock()
        # The stage being served and this wave's fault plans.
        self.stage: Any = None
        self.fault_plans: dict[int, TaskFaultPlan] = {}
        # (rdd_id, split) -> records decoded/computed in this process.
        # It outlives the stage, so a cached block is decoded once per
        # job; `begin_stage` evicts what the driver has since registered.
        self.local_cache: dict[tuple[int, int], list] = {}
        # Segment names created by the current attempt (unlinked if the
        # attempt fails gracefully; left for the driver sweep if the
        # process dies).
        self.created: list[str] = []
        self.current_out: TaskOutput | None = None
        self.attempt_tag = ""
        # Race sanitizer: a worker-local checker seeded from the driver's
        # fork snapshot; its notes ship home with every task outcome.
        self.vclock: VClockChecker | None = None
        if vclock_seed is not None:
            self.vclock = VClockChecker(
                actor=str(vclock_seed["actor"]),
                snapshot=dict(vclock_seed["clock"]))
        # Reroute cache materialization through this worker: blocks come
        # from (or go to) the backend's cross-process tables instead of
        # the simulated per-executor CacheStore.
        state.ctx._cached_iterator = (
            lambda rdd, split, task: self._cached_iterator(rdd, split, task))

    def begin_stage(self, order: StageOrder) -> None:
        """Catch up with the driver, then point at the ordered stage."""
        state = self.state
        if self.vclock is not None and order.vclock is not None:
            self.vclock.join("driver", order.vclock)
        for stage_id, out in order.delta:
            state.register(stage_id, out)
            for cb in out.cache_blocks:
                # The table now serves this block (this worker's own
                # computed records included): later stages decode the
                # registered bytes, exactly what a sim cache read yields.
                self.local_cache.pop((cb.rdd_id, cb.split), None)
        self.stage, _ = state.stages[order.stage_id]
        self.fault_plans = order.fault_plans
        # Task timestamps are relative to the order's arrival; the driver
        # re-anchors them at its own stage start.
        self.clock = _WallClock()

    # -- shuffle read shim ---------------------------------------------------
    def read_shuffle(self, shuffle_id: int, reduce_part: int) -> Any:
        store = self.state.ctx.shuffle_store
        for map_part in range(store.map_parts(shuffle_id)):
            block = store.fetch(shuffle_id, map_part, reduce_part)
            if block is None:
                raise RuntimeError(
                    f"mp fetch: missing map output "
                    f"({shuffle_id}, {map_part}, {reduce_part})")
            if (self.vclock is not None and block.shm_ref is not None
                    and block.shm_ref.name is not None):
                self.vclock.note_access("segment", block.shm_ref.name)
            yield from block.read()

    # -- cache shim ----------------------------------------------------------
    def _cached_iterator(self, rdd: Any, split: int,
                         task: TaskContext) -> Iterator[Any]:
        key = (rdd.rdd_id, split)
        local = self.local_cache.get(key)
        if local is not None:
            yield from local
            return
        entry = self.state.cache_blocks.get(key)
        if entry is not None:
            if (self.vclock is not None and entry.ref is not None
                    and entry.ref.name is not None):
                self.vclock.note_access("segment", entry.ref.name)
            records = list(entry.read())
            self.local_cache[key] = records
            yield from records
            return
        records = list(rdd.compute(split, task))
        self.local_cache[key] = records
        self._build_cache_block(rdd, key, records)
        yield from records

    def _build_cache_block(self, rdd: Any, key: tuple[int, int],
                           records: list) -> None:
        out = self.current_out
        if out is None:
            return
        plan = self.state.ctx.plan_cache(rdd)
        if plan.schema is None:
            out.cache_blocks.append(CacheBlockOut(
                rdd_id=key[0], split=key[1], kind="pickle",
                count=len(records), blob=pickle.dumps(records)))
        elif plan.strategy is StorageStrategy.DECA_PAGES:
            ref = self._pack_segment(f"c{key[0]}", plan, records)
            out.cache_blocks.append(CacheBlockOut(
                rdd_id=key[0], split=key[1], kind="shm",
                count=len(records), ref=ref))
        else:
            # The sim cache's SERIALIZED representation, from the same
            # plan.pack: both backends hand later stages byte-identical
            # record values.
            out.cache_blocks.append(CacheBlockOut(
                rdd_id=key[0], split=key[1], kind="packed",
                count=len(records), blob=plan.pack(records)))

    def _pack_segment(self, suffix: str, plan: ContainerPlan,
                      records: list) -> SegmentRef:
        """Pack *records* into this attempt's segment ``…<suffix>``."""
        assert plan.schema is not None
        ref = pack_records_segment(self.attempt_tag + suffix, plan.schema,
                                   list(plan.encoded(records)))
        if ref.name is not None:
            self.created.append(ref.name)
        return ref

    # -- one task attempt ----------------------------------------------------
    def run_task(self, split: int, attempt: int
                 ) -> TaskOutput | TaskFailure:
        state = self.state
        stage = self.stage
        executor_id = state.ctx.executor_for(split, attempt).executor_id
        self.attempt_tag = (f"{state.run_tag}-t{stage.stage_id}"
                            f"p{split}a{attempt}-")
        self.created = []
        plan = self.fault_plans.get(split)
        if (plan is not None and plan.kind == EXECUTOR_CRASH
                and plan.after_ops == 0):
            # Crash before doing any work.
            os._exit(CRASH_EXIT_CODE)
        crash_after = (plan is not None and plan.kind == EXECUTOR_CRASH)
        executor = WorkerExecutor(executor_id, state.ctx.config, self.clock,
                                  self.read_shuffle)
        task = TaskContext(
            executor=executor,
            metrics=TaskMetrics(task_id=split, stage_id=stage.stage_id,
                                attempt=attempt, executor_id=executor_id))
        executor._current_task = task
        out = TaskOutput(split=split, attempt=attempt,
                         executor_id=executor_id)
        self.current_out = out
        if plan is not None and plan.kind == TASK_KILL:
            executor.arm_fault(plan)
        start_ms = self.clock.now_ms
        try:
            if stage.shuffle_dep is not None:
                self._run_map_task(task, split, out)
            else:
                result = state.result_func(stage.rdd.iterator(split, task))
                out.result_blob = pickle.dumps(result)
        except TaskKilledError as exc:
            return self._fail(split, attempt, executor, "killed",
                              repr(exc), start_ms)
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            return self._fail(split, attempt, executor, "error",
                              f"{type(exc).__name__}: {exc}", start_ms)
        if crash_after:
            # Injected crash between commit and report: the attempt's
            # segments exist but the driver never hears about them —
            # exactly the orphan state its sweep must clean up.
            os._exit(CRASH_EXIT_CODE)
        out.records_read = task.metrics.records_read
        if self.vclock is not None:
            self.vclock.note_result_produced(
                f"t{stage.stage_id}.{split}.{attempt}")
        return self._seal(out, executor, start_ms)

    def _seal(self, outcome: _Outcome, executor: WorkerExecutor,
              start_ms: float) -> _Outcome:
        """Close the attempt: its duration, its task span (with whatever
        the task traced before it) and its sanitizer notes ride home on
        *outcome*, success or not."""
        stage_id = self.stage.stage_id
        outcome.duration_ms = self.clock.now_ms - start_ms
        executor.tracer.complete(
            f"task:{stage_id}.{outcome.split}.{outcome.attempt}", "task",
            ts_ms=start_ms, dur_ms=outcome.duration_ms,
            pid=executor.trace_pid, stage_id=stage_id,
            task_id=outcome.split, attempt=outcome.attempt,
            status=outcome.status, backend="mp", worker_pid=os.getpid())
        outcome.events = list(executor.tracer.events)
        if self.vclock is not None:
            outcome.vclock_notes = self.vclock.export_notes(drain=True)
        self.current_out = None
        return outcome

    def _fail(self, split: int, attempt: int, executor: WorkerExecutor,
              status: str, message: str, start_ms: float) -> TaskFailure:
        for name in self.created:
            unlink_segment(name)
        self.created = []
        if self.current_out is not None:
            # Blocks this attempt computed never reach the driver's
            # table: the retry must rebuild (and report) them.
            for cb in self.current_out.cache_blocks:
                self.local_cache.pop((cb.rdd_id, cb.split), None)
        return self._seal(
            TaskFailure(split=split, attempt=attempt,
                        executor_id=executor.executor_id, status=status,
                        message=message),
            executor, start_ms)

    def _run_map_task(self, task: TaskContext, split: int,
                      out: TaskOutput) -> None:
        """The sim engine's map task against a task-local store, then the
        store's blocks leave as segments (decomposed) or pickles."""
        dep = self.stage.shuffle_dep
        assert dep is not None
        local_store = ShuffleBlockStore()
        self.state.ctx.scheduler._map_task_body(
            self.stage, local_store)(task, split)
        for reduce_part in range(dep.num_reduce):
            block = local_store.fetch(dep.shuffle_id, split, reduce_part)
            assert block is not None and block.records is not None
            mb = MapBlockOut(
                reduce_part=reduce_part, count=len(block.records),
                nbytes=block.nbytes, objects=block.objects,
                merge_penalty_bytes=block.merge_penalty_bytes)
            if block.plan.schema is not None:
                mb.ref = self._pack_segment(
                    f"s{dep.shuffle_id}r{reduce_part}", block.plan,
                    block.records)
            else:
                mb.blob = pickle.dumps(block.records)
            out.map_blocks.append(mb)


def worker_main(state: "JobState", worker_id: int, conn: "Connection",
                vclock_seed: dict[str, Any] | None = None) -> None:
    """Entry point of one forked job executor.

    Serves :class:`StageOrder` messages from *conn* until the driver
    sends ``None`` (or hangs up): each order's splits run sequentially
    and every attempt's outcome goes back as ``("ok" | "fail", outcome)``
    the moment it exists, so a later death loses only unreported work.
    Returns normally — the interpreter then exits without running the
    atexit hooks it inherited from the driver.
    """
    runtime = _WorkerRuntime(state, worker_id, vclock_seed)
    while True:
        try:
            order = conn.recv()
        except EOFError:    # the driver is gone
            return
        if order is None:
            return
        runtime.begin_stage(order)
        for split, attempt in order.attempts.items():
            outcome = runtime.run_task(split, attempt)
            conn.send(("ok" if isinstance(outcome, TaskOutput) else "fail",
                       outcome))
