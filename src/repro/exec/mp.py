"""The multiprocess execution backend (driver side).

``MpBackend`` claims every stage and runs its tasks on **job-scoped
executors**: ``mp_workers`` processes forked once per job, when the
scheduler has built the job's stage graph (:meth:`MpBackend.begin_job`),
and reaped when the job ends, however it ends
(:meth:`MpBackend.end_job`).  Forking is what ships the code: a worker
inherits the driver's RDD graph (closures included), every stage's
shuffle plan, the shuffle store and the backend's cache table as of job
start.  What changes afterwards reaches it over its own duplex pipe —
each stage the driver sends every worker one small :class:`StageOrder`
(stage id, splits, attempt numbers, fault plans) carrying the *delta*
since that worker last heard: the outputs earlier stages registered,
which the worker folds into its inherited tables with the same
:meth:`JobState.register` the driver used.  Every block ships back as
one :class:`~repro.exec.shm.BlockPayload` in the form its container's
plan fixes: in place for Deca pages (a shared segment, counted as
``bytes_shared``), as bytes otherwise — SparkSer's packed blob or one
explicit pickle of object-form records (counted as
``bytes_pickled_records`` — the serialization tax the paper's
decomposition eliminates).

Executors do not outlive the job: closures travel by ``fork`` (stdlib
pickle cannot carry the apps' lambdas), so a worker can only run lineage
that existed when it was forked.

Determinism: task *results* are bitwise identical to the sim backend
(the workers run the same data-plane code in the same per-split order),
and metrics/trace/registration processing happens driver-side in sorted
split order regardless of worker arrival order — so the *structure* of
traces and metrics is reproducible.  Timings are real wall-clock and
therefore vary run to run; the sim backend remains the byte-exact one.

Fault handling mirrors the simulated scheduler where the physics allow:

* an injected ``task-kill`` raises inside the worker, which unlinks its
  own attempt segments and reports the failure (graceful; retried with
  the attempt counter rotating the executor assignment);
* an injected ``executor-crash`` makes the worker ``_exit`` without
  reporting — the driver sees the pipe hang up and the process sentinel
  fire, **sweeps the attempt's orphan segments by deterministic name
  prefix**, forks a replacement from its current state and retries;
* ``MAX_TASK_FAILURES`` aborts the stage exactly like the sim path;
* a stage that stops making progress is killed at
  ``mp_stage_timeout_s`` (the CI hang guard's backstop).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import itertools
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import connection, resource_tracker
from typing import Any, Callable, Iterator, TYPE_CHECKING

from ..core.plan import ContainerPlan
from ..errors import ExecutionError, StageAbortError, TaskKilledError
from ..simtime import ms_to_ticks
from ..spark.faults import MAX_TASK_FAILURES
from ..spark.metrics import TaskMetrics
from ..spark.shuffle import MapOutputBlock
from .backend import ExecutionBackend
from .shm import (SEGMENT_PREFIX, BlockPayload, SegmentRef,
                  ShmSegmentRegistry, read_block, shm_available,
                  sweep_segments, unlink_segment)
from .worker import StageOrder, TaskFailure, TaskOutput, worker_main

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from ..obs.sanitizer import Sanitizer
    from ..spark.context import DecaContext
    from ..spark.metrics import JobMetrics, StageMetrics
    from ..spark.scheduler import DAGScheduler, Stage

#: Distinguishes segment namespaces when one interpreter builds several
#: mp contexts (tests): names stay deterministic *per context order*.
_RUN_IDS = itertools.count()

#: How long a worker gets to exit after each of: being asked to return,
#: SIGTERM.  SIGKILL follows and is waited for without a limit.
_REAP_GRACE_S = 5.0


@dataclass
class JobState:
    """The driver state a job's executors are forked from.

    ``cache_blocks`` is the backend's own table and ``ctx.shuffle_store``
    the context's: each process mutates its copy through :meth:`register`
    — the driver when a task reports, a worker when the same output
    reaches it in an order's delta — so all copies move through the same
    states in the same order.  Both store every block as the
    :class:`~repro.exec.shm.BlockPayload` it crossed the pipe as.

    A block is decoded where it is read: a shuffle block by the reducer
    that reads it (:meth:`MapOutputBlock.read`), a cache block by
    :meth:`cached_records`, at most once per process, into ``decoded`` —
    the process's one map of decoded records.  The driver's map is the
    backend's and outlives the job, so a worker forked later inherits
    what the driver decoded.  No table of codecs is needed: a shuffle's
    plan (planned by ``begin_job``, before the fork) and a cached
    dataset's plan carry their codecs, and every process holds the same
    ones.
    """

    ctx: "DecaContext"
    # stage_id -> (stage, its shuffle plan; None for the result stage).
    stages: dict[int, tuple["Stage", ContainerPlan | None]]
    result_func: Callable[[Iterator], Any]
    cache_blocks: dict[tuple[int, int], BlockPayload]
    decoded: dict[tuple[int, int], list]
    run_tag: str

    def register(self, stage_id: int, out: TaskOutput,
                 owner: "MpBackend | None" = None) -> None:
        """Fold one task's reported blocks into the shuffle store and
        the cache table.

        *owner* is the driver's backend: only it adopts segments into the
        registry, charges arenas, counts bytes and unlinks a duplicate
        block's segment, and it decodes a pickled cache block now, so
        every later fork inherits the records.  A worker passes ``None``,
        merely learns where the blocks are and decodes nothing.
        """
        ctx = self.ctx
        stage, plan = self.stages[stage_id]
        dep = stage.shuffle_dep
        for mb in out.map_blocks:
            assert dep is not None and plan is not None
            self._land(mb.payload, out.executor_id, owner)
            ctx.shuffle_store.register(
                dep.shuffle_id, out.split, mb.reduce_part,
                MapOutputBlock(
                    records=None, nbytes=mb.nbytes, objects=mb.objects,
                    executor_id=out.executor_id, plan=plan,
                    merge_penalty_bytes=mb.merge_penalty_bytes,
                    payload=mb.payload))
        for key, payload in out.cache_blocks.items():
            if key in self.cache_blocks:
                # Already materialized by an earlier task (cannot happen
                # within a stage; defensive for replays): keep the first.
                if owner is not None and payload.segment is not None:
                    unlink_segment(payload.segment)
                continue
            self._land(payload, out.executor_id, owner)
            self.cache_blocks[key] = payload
            if owner is not None and payload.blob is not None:
                cache_plan = ctx.plan_cache(ctx._rdds[key[0]])
                if cache_plan.schema is None:
                    self.cached_records(key, cache_plan)

    @staticmethod
    def _land(payload: BlockPayload, executor_id: int,
              owner: "MpBackend | None") -> None:
        """One shipped block arriving in this process: the driver adopts
        its segment or counts its bytes.  Nothing is decoded."""
        if owner is None:
            return
        if payload.ref is not None:
            owner._adopt_segment(payload.ref, executor_id)
        else:
            assert payload.blob is not None
            owner.stats.bytes_pickled_records += len(payload.blob)

    def cached_records(self, key: tuple[int, int], plan: ContainerPlan,
                       sanitizer: Sanitizer | None = None) -> list:
        """The records of registered cache block *key*, decoded with
        its *plan* at most once in this process."""
        records = self.decoded.get(key)
        if records is None:
            records = self.decoded[key] = list(
                read_block(self.cache_blocks[key], plan, sanitizer))
        return records


@dataclass
class _Executor:
    """The driver's handle on one forked job executor."""

    worker_id: int
    proc: "BaseProcess"
    conn: "connection.Connection"
    # Sanitizer actor name (unique per fork).
    actor: str
    # How much of the job's delta log this worker has been sent.
    cursor: int
    # The stage it was last ordered into, and split -> attempt for what
    # it was ordered to run there and has not reported yet.
    stage_id: int = -1
    outstanding: dict[int, int] = field(default_factory=dict)


@dataclass
class _Job:
    """One job's executors and what they have to be told."""

    state: JobState
    # Append-only: (stage_id, TaskOutput) in registration order.
    delta: list[tuple[int, TaskOutput]] = field(default_factory=list)
    workers: dict[int, _Executor] = field(default_factory=dict)


class MpBackend(ExecutionBackend):
    """Real parallel execution over forked workers and shared pages."""

    name = "mp"

    def __init__(self, ctx: "DecaContext") -> None:
        super().__init__(ctx)
        if not shm_available():
            raise ExecutionError(
                "execution_backend='mp' needs POSIX shared memory")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "execution_backend='mp' needs the fork start method")
        self._mp = multiprocessing.get_context("fork")
        # Segments never touch the stdlib resource tracker (see
        # ``shm``), but UDF code may use stdlib shared memory or
        # semaphores in a worker: start the tracker here so every worker
        # inherits the driver's, instead of fork+exec'ing an interpreter
        # of its own on the job's clock.
        resource_tracker.ensure_running()
        self.run_tag = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_RUN_IDS)}"
        self.num_workers = (ctx.config.mp_workers
                            or ctx.config.num_executors)
        # The driver's sanitizer (if sanitize mode is on) audits segment
        # register/release — unlink with readers is a violation.
        self.registry = ShmSegmentRegistry(on_unlink=self._segment_unlinked,
                                           sanitizer=ctx.sanitizer)
        self.cache_blocks: dict[tuple[int, int], BlockPayload] = {}
        # The driver's decoded cache records (see JobState), inherited by
        # every fork.
        self.decoded: dict[tuple[int, int], list] = {}
        self._segment_owner: dict[str, int] = {}
        self._job: _Job | None = None

    # -- arena accounting -----------------------------------------------------
    def _adopt_segment(self, ref: SegmentRef, executor_id: int) -> None:
        """Register a shipped segment and charge it to its owning
        executor's pool."""
        if ref.name is None:
            return
        self.registry.register(ref)
        self._segment_owner[ref.name] = executor_id
        self.ctx.executors[executor_id].arena.storage_register_pinned(
            f"shm:{ref.name}", ref.nbytes)
        self.stats.segments_created += 1
        self.stats.bytes_shared += ref.nbytes
        self.stats.segments_live = len(self.registry)

    def _segment_unlinked(self, name: str, nbytes: int) -> None:
        executor_id = self._segment_owner.pop(name, None)
        if executor_id is None:
            return
        self.ctx.executors[executor_id].arena.storage_discard(f"shm:{name}")

    # -- the job lifecycle ----------------------------------------------------
    def begin_job(self, stages: "list[Stage]",
                  func: Callable[[Iterator], Any]) -> None:
        """Plan every stage of the job, then fork its executors — once.

        Planning first is what lets a worker serve the whole job from
        one fork: the plan of every shuffle and of every cached dataset
        a stage reads — codec included — is in the planner's table
        (``ctx._optimizer``) when the workers inherit it, so an order
        only has to name the stage.
        """
        ctx = self.ctx
        plans: dict[int, tuple["Stage", ContainerPlan | None]] = {}
        for stage in stages:
            for _ in ctx.input_plans(stage.rdd):
                pass
            dep = stage.shuffle_dep
            if dep is None:
                plans[stage.stage_id] = (stage, None)
                continue
            plans[stage.stage_id] = (stage, ctx.plan_shuffle(dep))
            # The scheduler sets this again at stage start — too late
            # for a reader forked now.
            ctx.shuffle_store.set_map_parts(dep.shuffle_id, stage.num_tasks)
        job = self._job = _Job(JobState(
            ctx=ctx, stages=plans, result_func=func,
            cache_blocks=self.cache_blocks, decoded=self.decoded,
            run_tag=self.run_tag))
        width = max(stage.num_tasks for stage in stages)
        for worker_id in range(max(1, min(self.num_workers, width))):
            self._spawn(job, worker_id)

    def end_job(self) -> None:
        """Reap the job's executors (also on the way out of a failed or
        interrupted job: busy ones are killed, their segments swept)."""
        job, self._job = self._job, None
        if job is not None:
            for worker in list(job.workers.values()):
                self._retire(job, worker)

    def _spawn(self, job: _Job, worker_id: int) -> None:
        """Fork one executor from the driver's state as of now.

        The only spawn site: job start and the replacement of a dead
        worker both come here.  The child has everything registered so
        far, so its delta cursor starts at the end of the log.
        """
        ctx = self.ctx
        actor = f"w{self.stats.workers_forked}"
        seed = None
        if ctx.sanitizer is not None:
            # Fork edge: the worker's sanitizer starts from a snapshot of
            # the driver clock taken before the fork.
            seed = {"actor": actor, "clock": ctx.sanitizer.fork(actor)}
        driver_end, worker_end = self._mp.Pipe()
        # The child must not hold the driver's pipe ends (its own or its
        # siblings'), or it would never see the driver hang up.
        inherited = [driver_end] + [w.conn for w in job.workers.values()]
        proc = self._mp.Process(
            target=_worker_entry,
            args=(job.state, worker_id, worker_end, seed, inherited),
            daemon=True)
        proc.start()
        # Likewise the driver: with the worker's end open only in the
        # worker, its death reads as EOF on the driver's end.
        worker_end.close()
        job.workers[worker_id] = _Executor(worker_id, proc, driver_end,
                                           actor, cursor=len(job.delta))
        self.stats.workers_forked += 1

    def _retire(self, job: _Job, worker: _Executor) -> int | None:
        """Take one executor out of the job; returns its exit code.

        An idle worker is asked to return (so ``worker_main`` unwinds and
        whatever wraps it runs); a busy or deaf one is terminated, then
        killed.  Only once the process is confirmed dead are the segments
        of its unreported attempts swept by name prefix.
        """
        ctx = self.ctx
        job.workers.pop(worker.worker_id, None)
        proc = worker.proc
        if not worker.outstanding:
            try:
                worker.conn.send(None)
            except OSError:     # it died idle; nothing to ask
                pass
            proc.join(timeout=_REAP_GRACE_S)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_REAP_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if ctx.sanitizer is not None:
            # Death confirmed (joined corpse): the actor leaves the live
            # set before any orphan sweep.
            ctx.sanitizer.exit_actor(worker.actor)
        for split, attempt in sorted(worker.outstanding.items()):
            prefix = self._attempt_prefix(worker.stage_id, split, attempt)
            sweep_segments(prefix)
            if ctx.sanitizer is not None:
                ctx.sanitizer.note_sweep(prefix, owner=worker.actor)
        exitcode: int | None = proc.exitcode
        worker.conn.close()
        proc.close()
        return exitcode

    # -- the backend protocol -------------------------------------------------
    def run_map_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                      stage_metrics: "StageMetrics",
                      job_metrics: "JobMetrics",
                      stage_start: int) -> bool:
        outputs = self._run_stage(scheduler, stage, stage_metrics,
                                  job_metrics, stage_start)
        for split in sorted(outputs):
            self._register(stage, outputs[split])
        return True

    def run_result_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                         func: Callable[[Iterator], Any],
                         stage_metrics: "StageMetrics",
                         job_metrics: "JobMetrics",
                         stage_start: int) -> list | None:
        outputs = self._run_stage(scheduler, stage, stage_metrics,
                                  job_metrics, stage_start)
        results: list[Any] = []
        ctx = self.ctx
        for split in range(stage.num_tasks):
            out = outputs[split]
            assert out.result_blob is not None
            if ctx.sanitizer is not None:
                # The producer's notes were absorbed at the barrier in
                # _run_stage, so this consume has its edge.
                ctx.sanitizer.note_result_consumed(
                    f"t{stage.stage_id}.{split}.{out.attempt}")
            self.stats.bytes_pickled_results += len(out.result_blob)
            results.append(pickle.loads(out.result_blob))
            self._register(stage, out)
        return results

    def _register(self, stage: "Stage", out: TaskOutput) -> None:
        """Register *out* driver-side and log it for the workers."""
        job = self._job
        assert job is not None
        job.state.register(stage.stage_id, out, owner=self)
        job.delta.append((stage.stage_id, dataclasses.replace(
            out, result_blob=None, events=[], sanitizer_notes=None)))

    def unpersist_rdd(self, rdd_id: int) -> None:
        for key in [k for k in self.cache_blocks if k[0] == rdd_id]:
            block = self.cache_blocks.pop(key)
            self.decoded.pop(key, None)
            if block.segment is not None:
                self.registry.release(block.segment)
        self.stats.segments_live = len(self.registry)

    def shutdown(self) -> None:
        self.cache_blocks.clear()
        self.decoded.clear()
        self.registry.release_all()
        self.stats.segments_live = 0

    # -- running one stage ----------------------------------------------------
    def _run_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                   stage_metrics: "StageMetrics",
                   job_metrics: "JobMetrics", stage_start: int,
                   ) -> dict[int, TaskOutput]:
        ctx = self.ctx
        cfg = ctx.config
        job = self._job
        if job is None or stage.stage_id not in job.state.stages:
            raise ExecutionError(
                f"mp stage {stage.stage_id} is not part of a running job "
                "(begin_job plans the stages its executors can serve)")
        injector = ctx.fault_injector
        recovery = job_metrics.recovery
        pending: dict[int, int] = {s: 0 for s in range(stage.num_tasks)}
        failures: dict[int, int] = {s: 0 for s in range(stage.num_tasks)}
        outputs: dict[int, TaskOutput] = {}
        # Every attempt's outcome, buffered for `_flush` to fold in order.
        reports: list[TaskOutput | TaskFailure] = []
        waves = 0
        real_start = time.perf_counter()
        deadline = time.monotonic() + cfg.mp_stage_timeout_s
        self.stats.mp_stages += 1
        while pending:
            waves += 1
            wave = sorted(pending)
            fault_plans: dict[int, Any] = {}
            if injector.enabled:
                # Planned driver-side, in split order, so the injector's
                # seeded RNG sees the same draw sequence on every run.
                for split in wave:
                    plan = injector.plan_task(stage.stage_id, split,
                                              pending[split])
                    if plan is not None:
                        fault_plans[split] = plan
            nworkers = min(len(job.workers), len(wave))
            for worker_id in range(nworkers):
                worker = job.workers[worker_id]
                splits = wave[worker_id::nworkers]
                order = StageOrder(
                    stage_id=stage.stage_id,
                    attempts={s: pending[s] for s in splits},
                    fault_plans={s: fault_plans[s] for s in splits
                                 if s in fault_plans},
                    delta=job.delta[worker.cursor:],
                    # Send edge: what the driver did before this order
                    # happens-before everything the worker does under it.
                    sanitizer_clock=(ctx.sanitizer.send()
                                     if ctx.sanitizer is not None
                                     else None))
                worker.cursor = len(job.delta)
                worker.stage_id = stage.stage_id
                worker.outstanding = dict(order.attempts)
                try:
                    worker.conn.send(order)
                except OSError:
                    pass    # died idle: _gather finds the corpse
            oks, fails, deaths = self._gather(job, stage, deadline)
            # One process death is one lost executor, however many of
            # its assigned tasks went down with it.
            recovery.executors_lost += deaths
            self.stats.worker_deaths += deaths
            self.stats.mp_tasks += len(oks) + len(fails)
            for out in oks:
                if ctx.sanitizer is not None \
                        and out.sanitizer_notes is not None:
                    # Receive edge: replay the worker's segment accesses
                    # and join its clock into the driver's.
                    ctx.sanitizer.absorb(out.sanitizer_notes)
                outputs[out.split] = out
                attempt = pending.pop(out.split)
                reports.append(out)
                if attempt > 0:
                    recovery.task_retries += attempt
            for fail in sorted(fails, key=lambda f: f.split):
                split = fail.split
                if ctx.sanitizer is not None \
                        and fail.sanitizer_notes is not None:
                    ctx.sanitizer.absorb(fail.sanitizer_notes)
                reports.append(fail)
                recovery.task_failures += 1
                failures[split] += 1
                if fail.status == "error":
                    # Non-injected failures are driver errors, as in the
                    # sim path (which only retries injected fault kinds).
                    self._flush(scheduler, stage_metrics, reports,
                                stage_start, real_start, waves)
                    self._abandon(outputs)
                    raise ExecutionError(
                        f"mp task {stage.stage_id}.{split} "
                        f"(attempt {fail.attempt}) failed: {fail.message}")
                if failures[split] >= MAX_TASK_FAILURES:
                    self._flush(scheduler, stage_metrics, reports,
                                stage_start, real_start, waves)
                    self._abandon(outputs)
                    raise StageAbortError(
                        stage.stage_id, split, failures[split],
                        TaskKilledError(stage.stage_id, split,
                                        fail.attempt))
                pending[split] = fail.attempt + 1
        self._flush(scheduler, stage_metrics, reports, stage_start,
                    real_start, waves)
        return outputs

    def _attempt_prefix(self, stage_id: int, split: int,
                        attempt: int) -> str:
        return f"{self.run_tag}-t{stage_id}p{split}a{attempt}-"

    def _abandon(self, outputs: dict[int, TaskOutput]) -> None:
        """Unlink the segments of an aborting stage's successful attempts.

        An aborted stage registers nothing, so those segments have no
        owner left.  The rest of the stage cleaned up after itself: a
        failed attempt unlinks what it packed, and a dead worker's
        attempts are swept by prefix once it is confirmed dead.  These
        are unlinked by name, not swept, because their workers are alive.
        """
        for out in outputs.values():
            for payload in (*(mb.payload for mb in out.map_blocks),
                            *out.cache_blocks.values()):
                if payload.segment is not None:
                    unlink_segment(payload.segment)

    def _flush(self, scheduler: "DAGScheduler",
               stage_metrics: "StageMetrics",
               reports: list[TaskOutput | TaskFailure], stage_start: int,
               real_start: float, waves: int) -> None:
        """Fold buffered outcomes into metrics/trace, in split order.

        Workers finish in wall-clock order; sorting here makes the
        emitted structure — task metrics rows, relayed trace events —
        identical across runs of the same program.
        """
        ctx = self.ctx
        elapsed = ms_to_ticks((time.perf_counter() - real_start) * 1000.0)
        for report in sorted(reports, key=lambda r: (r.split, r.attempt)):
            stage_metrics.tasks.append(TaskMetrics(
                task_id=report.split, stage_id=stage_metrics.stage_id,
                executor_id=report.executor_id, attempt=report.attempt,
                status=report.status, records_read=report.records_read,
                compute_ticks=report.duration_ticks,
                duration_ticks=report.duration_ticks))
            for event in report.events:
                # Worker timestamps are relative to its fork; re-anchor
                # them at the stage's driver timestamp.  The pid is the
                # worker-assigned executor trace pid, same numbering the
                # sim backend uses — traces stay single-file.
                if ctx.sanitizer is not None:
                    ctx.sanitizer.note_relay(stage_start + event.ts_ticks,
                                             stage_start, pid=event.pid)
                ctx.tracer.emit(dataclasses.replace(
                    event, ts_ticks=stage_start + event.ts_ticks))
        ctx.tracer.instant(
            f"mp:stage:{stage_metrics.stage_id}", "mp",
            ts_ticks=stage_start, stage_id=stage_metrics.stage_id,
            waves=waves, workers=self.num_workers,
            segments_live=len(self.registry))
        reports.clear()
        # The mp clock policy: real elapsed time becomes the simulated
        # stage wall for every executor (clocks never go backwards).
        for executor in ctx.executors:
            executor.clock.advance_to(stage_start + elapsed)

    def _gather(self, job: _Job, stage: "Stage", deadline: float,
                ) -> tuple[list[TaskOutput], list[TaskFailure], int]:
        """The stage barrier: wait until every ordered worker has
        reported all its splits — or is a corpse.

        One ``connection.wait`` over the busy workers' pipes and process
        sentinels, bounded by the stage deadline: an outcome, a hang-up
        and an exit all wake it at once.  A dead worker's unreported
        splits come back as ``executor-lost`` failures and a fresh fork
        takes its place before the retry wave.  Returns the wave's
        outputs, failures and the count of workers that died.
        """
        oks: list[TaskOutput] = []
        fails: list[TaskFailure] = []
        deaths = 0
        while True:
            busy = [w for w in job.workers.values() if w.outstanding]
            if not busy:
                return oks, fails, deaths
            waitables: list[Any] = [w.conn for w in busy]
            waitables += [w.proc.sentinel for w in busy]
            ready = connection.wait(
                waitables, max(0.0, deadline - time.monotonic()))
            if not ready:
                for worker in list(job.workers.values()):
                    self._retire(job, worker)
                raise ExecutionError(
                    f"mp stage {stage.stage_id} exceeded "
                    f"mp_stage_timeout_s="
                    f"{self.ctx.config.mp_stage_timeout_s}")
            for worker in busy:
                if (worker.conn not in ready
                        and worker.proc.sentinel not in ready):
                    continue
                try:
                    # Everything it managed to send, a dead worker's
                    # last words included.
                    while worker.outstanding and worker.conn.poll():
                        kind, outcome = worker.conn.recv()
                        (oks if kind == "ok" else fails).append(outcome)
                        del worker.outstanding[outcome.split]
                    dead = not worker.proc.is_alive()
                except (EOFError, OSError):
                    dead = True
                if not (dead and worker.outstanding):
                    continue
                deaths += 1
                lost = dict(worker.outstanding)
                exitcode = self._retire(job, worker)
                for split, attempt in lost.items():
                    fails.append(TaskFailure(
                        split=split, attempt=attempt,
                        executor_id=self.ctx.executor_for(
                            split, attempt).executor_id,
                        status="executor-lost",
                        message=f"worker {worker.worker_id} died "
                                f"(exit {exitcode})"))
                self._spawn(job, worker.worker_id)


def _worker_entry(state: JobState, worker_id: int,
                  conn: "connection.Connection",
                  sanitizer_seed: dict[str, Any] | None,
                  inherited: "list[connection.Connection]") -> None:
    """What a forked executor process runs."""
    for driver_end in inherited:
        driver_end.close()
    # Looked up now, in the child: whoever wrapped ``worker_main`` in
    # this module (benchmarks/perf's traced run) is what runs.
    worker_main(state, worker_id, conn, sanitizer_seed)
