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
on the wall clock, not the simulated one.

Every block a task outputs — each shuffle block it writes and each
cache block it materializes — leaves as one
:class:`~repro.exec.shm.BlockPayload` in the form its container's plan
fixes (:func:`~repro.exec.shm.ship_block`): Deca pages are packed into a
shared-memory segment and only its :class:`~repro.exec.shm.SegmentRef`
crosses the pipe — zero pickled record bytes; everything else crosses
as bytes (SparkSer's packed blob, or a pickle of object-form records),
and the driver counts them — exactly the serialization cost the paper's
decomposition removes.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar, TYPE_CHECKING

from ..core.plan import ContainerPlan
from ..errors import TaskKilledError
from ..obs.tracer import TraceEvent, Tracer
from ..obs.sanitizer import Sanitizer
from ..simtime import Prices, ms_to_ticks
from ..spark.executor import FaultCountdown
from ..spark.faults import EXECUTOR_CRASH, TASK_KILL, TaskFaultPlan
from ..spark.metrics import TaskMetrics
from ..spark.scheduler import TaskContext
from ..spark.shuffle import ShuffleBlockStore
from .shm import BlockPayload, ship_block, unlink_segment

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
    # Send edge (sanitize mode): the driver clock as of this order.
    sanitizer_clock: dict[str, int] | None = None


@dataclass
class MapBlockOut:
    """One (map, reduce) shuffle block leaving a worker: its accounting
    next to its payload."""

    reduce_part: int
    nbytes: int
    objects: int
    merge_penalty_bytes: int
    payload: BlockPayload


@dataclass
class TaskOutput:
    """Everything one successful task attempt reports to the driver."""

    split: int
    attempt: int
    executor_id: int
    status: str = "success"
    duration_ticks: int = 0
    records_read: int = 0
    map_blocks: list[MapBlockOut] = field(default_factory=list)
    # (rdd_id, split) -> the cached partition this task materialized.
    cache_blocks: dict[tuple[int, int], BlockPayload] = field(
        default_factory=dict)
    result_blob: bytes | None = None
    events: list[TraceEvent] = field(default_factory=list)
    # Sanitizer notes (sanitize mode only): the worker's clock plus its
    # recorded segment accesses for this task.
    sanitizer_notes: dict | None = None


@dataclass
class TaskFailure:
    """A graceful task failure (the worker survived it)."""

    split: int
    attempt: int
    executor_id: int
    status: str                     # "killed" | "error" | "executor-lost"
    message: str
    duration_ticks: int = 0
    records_read: int = 0
    events: list[TraceEvent] = field(default_factory=list)
    sanitizer_notes: dict | None = None


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

    def buffer_charge(self, consumer: Any, nbytes: int) -> tuple[int, bool]:
        return nbytes, False

    def buffer_release(self, consumer: Any, nbytes: int) -> int:
        return nbytes


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
    """The worker's clock is the wall clock, in ticks (read-only for
    charges)."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def ticks(self) -> int:
        return ms_to_ticks((time.perf_counter() - self._t0) * 1000.0)

    def advance(self, ticks: int) -> None:
        pass

    def advance_to(self, ticks: int) -> None:
        pass


class WorkerExecutor(FaultCountdown):
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
        self.prices = Prices(config)
        self._read_shuffle_fn = read_shuffle_fn
        self._fault_plan: TaskFaultPlan | None = None
        self._fault_countdown = 0
        self._current_task: TaskContext | None = None

    # -- charges (no-ops; the wall clock is the cost model) ------------------
    def charge_compute(self, ticks: int) -> None:
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
                 sanitizer_seed: dict[str, Any] | None) -> None:
        self.state = state
        self.worker_id = worker_id
        self.clock = _WallClock()
        # The stage being served and this wave's fault plans.
        self.stage: Any = None
        self.fault_plans: dict[int, TaskFaultPlan] = {}
        # Segment names created by the current attempt (unlinked if the
        # attempt fails gracefully; left for the driver sweep if the
        # process dies).
        self.created: list[str] = []
        self.current_out: TaskOutput | None = None
        # (rdd_id, split) -> the records the current attempt computed and
        # shipped as a cache block: a second read inside the attempt
        # (PageRank's first join reads its adjacency directly and through
        # the ranks) streams them again.  Dropped with the attempt, so a
        # retry rebuilds its blocks and a later stage reads the
        # registered bytes.
        self.computed: dict[tuple[int, int], list] = {}
        self.attempt_tag = ""
        # The current map stage's task body (built by `begin_stage`) and
        # the store it writes into, emptied after every task.
        self.map_store = ShuffleBlockStore()
        self.map_body: Callable[[TaskContext, int], None] | None = None
        # Sanitize mode: this process's sanitizer, seeded from the
        # driver's fork snapshot; its notes ship home with every outcome.
        self.sanitizer: Sanitizer | None = None
        if sanitizer_seed is not None:
            self.sanitizer = Sanitizer(
                actor=str(sanitizer_seed["actor"]),
                snapshot=dict(sanitizer_seed["clock"]))
        # Reroute cache materialization through this worker: blocks come
        # from (or go to) the backend's cross-process tables instead of
        # the simulated per-executor CacheStore.
        state.ctx._cached_iterator = (
            lambda rdd, split, task: self._cached_iterator(rdd, split, task))

    def begin_stage(self, order: StageOrder) -> None:
        """Catch up with the driver, then point at the ordered stage."""
        state = self.state
        if self.sanitizer is not None and order.sanitizer_clock is not None:
            self.sanitizer.join("driver", order.sanitizer_clock)
        for stage_id, out in order.delta:
            state.register(stage_id, out)
        self.stage, plan = state.stages[order.stage_id]
        if plan is not None:
            # One map-task body per stage, over the plan the fork
            # inherited.
            self.map_body = state.ctx.scheduler._map_task_body(
                self.stage, self.map_store, plan)
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
            yield from block.read(self.sanitizer)

    # -- cache shim ----------------------------------------------------------
    def _cached_iterator(self, rdd: Any, split: int,
                         task: TaskContext) -> Iterator[Any]:
        """A registered block's records, decoded once per process; else
        the partition computed, shipped and streamed as computed — so a
        later stage reads the registered bytes, exactly what a sim cache
        read yields."""
        key = (rdd.rdd_id, split)
        state = self.state
        if key in state.cache_blocks:
            yield from state.cached_records(key, state.ctx.plan_cache(rdd),
                                           self.sanitizer)
            return
        records = self.computed.get(key)
        if records is None:
            records = self.computed[key] = list(rdd.compute(split, task))
            self._build_cache_block(rdd, key, records)
        yield from records

    def _build_cache_block(self, rdd: Any, key: tuple[int, int],
                           records: list) -> None:
        out = self.current_out
        if out is None:
            return
        # The sim cache's representation under the same plan: both
        # backends hand later stages byte-identical record values.
        out.cache_blocks[key] = self._ship(
            self.state.ctx.plan_cache(rdd), records, f"c{key[0]}")

    def _ship(self, plan: ContainerPlan, records: list,
              suffix: str) -> BlockPayload:
        """*records* as *plan* ships them; a segment is this attempt's
        ``…<suffix>``."""
        payload = ship_block(plan, records, self.attempt_tag + suffix)
        if payload.segment is not None:
            self.created.append(payload.segment)
        return payload

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
        start = self.clock.ticks
        try:
            if stage.shuffle_dep is not None:
                self._run_map_task(task, split, out)
            else:
                result = state.result_func(stage.rdd.iterator(split, task))
                out.result_blob = pickle.dumps(result)
        except TaskKilledError as exc:
            return self._fail(split, attempt, executor, "killed",
                              repr(exc), start)
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            return self._fail(split, attempt, executor, "error",
                              f"{type(exc).__name__}: {exc}", start)
        if crash_after:
            # Injected crash between commit and report: the attempt's
            # segments exist but the driver never hears about them —
            # exactly the orphan state its sweep must clean up.
            os._exit(CRASH_EXIT_CODE)
        out.records_read = task.metrics.records_read
        if self.sanitizer is not None:
            self.sanitizer.note_result_produced(
                f"t{stage.stage_id}.{split}.{attempt}")
        return self._seal(out, executor, start)

    def _seal(self, outcome: _Outcome, executor: WorkerExecutor,
              start: int) -> _Outcome:
        """Close the attempt: its duration, its task span (with whatever
        the task traced before it) and its sanitizer notes ride home on
        *outcome*, success or not."""
        stage_id = self.stage.stage_id
        outcome.duration_ticks = self.clock.ticks - start
        executor.tracer.complete(
            f"task:{stage_id}.{outcome.split}.{outcome.attempt}", "task",
            ts_ticks=start, dur_ticks=outcome.duration_ticks,
            pid=executor.trace_pid, stage_id=stage_id,
            task_id=outcome.split, attempt=outcome.attempt,
            status=outcome.status, backend="mp", worker_pid=os.getpid())
        outcome.events = list(executor.tracer.events)
        if self.sanitizer is not None:
            outcome.sanitizer_notes = self.sanitizer.export_notes(drain=True)
        self.current_out = None
        self.computed = {}
        return outcome

    def _fail(self, split: int, attempt: int, executor: WorkerExecutor,
              status: str, message: str, start: int) -> TaskFailure:
        for name in self.created:
            unlink_segment(name)
        self.created = []
        return self._seal(
            TaskFailure(split=split, attempt=attempt,
                        executor_id=executor.executor_id, status=status,
                        message=message),
            executor, start)

    def _run_map_task(self, task: TaskContext, split: int,
                      out: TaskOutput) -> None:
        """The sim engine's map task against a task-local store, then the
        store's blocks leave in their plan's form."""
        dep = self.stage.shuffle_dep
        assert dep is not None and self.map_body is not None
        store = self.map_store
        try:
            self.map_body(task, split)
            for reduce_part in range(dep.num_reduce):
                block = store.fetch(dep.shuffle_id, split, reduce_part)
                assert block is not None and block.records is not None
                out.map_blocks.append(MapBlockOut(
                    reduce_part=reduce_part, nbytes=block.nbytes,
                    objects=block.objects,
                    merge_penalty_bytes=block.merge_penalty_bytes,
                    payload=self._ship(block.plan, block.records,
                                       f"s{dep.shuffle_id}r{reduce_part}")))
        finally:
            # The blocks have left (or the attempt failed): drop them.
            store.remove_shuffle(dep.shuffle_id)


def worker_main(state: "JobState", worker_id: int, conn: "Connection",
                sanitizer_seed: dict[str, Any] | None = None) -> None:
    """Entry point of one forked job executor.

    Serves :class:`StageOrder` messages from *conn* until the driver
    sends ``None`` (or hangs up): each order's splits run sequentially
    and every attempt's outcome goes back as ``("ok" | "fail", outcome)``
    the moment it exists, so a later death loses only unreported work.
    Returns normally — the interpreter then exits without running the
    atexit hooks it inherited from the driver.
    """
    runtime = _WorkerRuntime(state, worker_id, sanitizer_seed)
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
