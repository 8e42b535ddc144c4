"""The multiprocess execution backend (driver side).

``MpBackend`` claims every stage and runs its tasks on a pool of
**forked** worker processes.  Forking at stage start is the whole trick:
the workers inherit the driver's RDD graph (closures included), the
shuffle store with every registered parent block, the backend's shared
cache tables and the optimizer's plans — a task ships as a bare split
index, and a decomposed block ships back as a
:class:`~repro.exec.shm.SegmentRef` naming the shared-memory pages the
worker packed it into.  Record payloads cross process boundaries either
in place (shared segments, counted as ``bytes_shared``) or, for
object-form plans, through one explicit pickle (counted as
``bytes_pickled_records`` — the serialization tax the paper's
decomposition eliminates).

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
  reporting — the driver detects the dead process, **sweeps the
  attempt's orphan segments by deterministic name prefix**, and retries;
* ``max_task_failures`` aborts the stage exactly like the sim path;
* a wave that stops making progress is killed at
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
from queue import Empty
from typing import Any, Callable, Iterator, TYPE_CHECKING

from ..errors import ExecutionError, StageAbortError, TaskKilledError
from ..memory.unified import UnifiedMemoryManager
from ..spark.metrics import TaskMetrics
from ..spark.shuffle import MapOutputBlock
from .backend import ExecutionBackend
from .shm import (SEGMENT_PREFIX, SegmentRef, ShmSegmentRegistry,
                  read_segment_records, shm_available, sweep_segments,
                  unlink_segment)
from .worker import (CacheBlockOut, TaskFailure, TaskOutput, worker_main)

if TYPE_CHECKING:
    from ..spark.context import DecaContext
    from ..spark.metrics import JobMetrics, StageMetrics
    from ..spark.scheduler import DAGScheduler, Stage

#: Distinguishes segment namespaces when one interpreter builds several
#: mp contexts (tests): names stay deterministic *per context order*.
_RUN_IDS = itertools.count()


@dataclass(frozen=True)
class ShuffleMeta:
    """Everything a reader needs to decode one shuffle's shared blocks."""

    schema: Any
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any] | None
    tag: int | None


@dataclass
class CacheEntry:
    """One cached partition in the backend's cross-process table."""

    kind: str                       # "shm" | "packed" | "records"
    count: int
    ref: SegmentRef | None = None
    blob: bytes | None = None
    records: list | None = None
    schema: Any = None
    decode: Callable[[Any], Any] | None = None
    # Set when the driver's cache swapped the block to the cold tier:
    # workers must recompute instead of resolving the (stale-hot) copy.
    cold: bool = False

    def read(self) -> Iterator[Any]:
        if self.cold:
            raise RuntimeError(
                "cold cache block read as hot — workers must recompute "
                "demoted blocks from lineage")
        if self.kind == "records":
            assert self.records is not None
            yield from self.records
        elif self.kind == "shm":
            assert self.ref is not None
            yield from read_segment_records(self.ref, self.schema,
                                            self.decode)
        else:  # packed: the sim cache's SERIALIZED representation
            assert self.blob is not None
            values = self.schema.iter_unpack(self.blob)
            yield from map(self.decode, values) if self.decode else values


@dataclass
class StageState:
    """Driver state snapshot a stage's forked workers execute against."""

    ctx: "DecaContext"
    stage: "Stage"
    is_map_stage: bool
    result_func: Callable | None
    shuffle_plan: Any
    shuffle_meta: dict[int, ShuffleMeta]
    cache_blocks: dict[tuple[int, int], CacheEntry]
    fault_plans: dict[int, Any]
    attempts: dict[int, int]
    num_executors: int
    run_tag: str
    # worker_id -> {"actor": ..., "clock": ...} fork snapshots (race
    # sanitizer; empty unless config.sanitize).
    vclock_snapshots: dict[int, dict] = field(default_factory=dict)


@dataclass
class _AttemptReport:
    """One attempt's outcome, buffered for deterministic processing."""

    split: int
    attempt: int
    executor_id: int
    status: str                     # "success" | "killed" | ...
    duration_ms: float = 0.0
    records_read: int = 0
    events: list = field(default_factory=list)


class MpBackend(ExecutionBackend):
    """Real parallel execution over forked workers and shared pages."""

    name = "mp"

    def __init__(self, ctx: "DecaContext") -> None:
        super().__init__(ctx)
        if not shm_available():
            raise ExecutionError(
                "execution_backend='mp' needs multiprocessing.shared_memory")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "execution_backend='mp' needs the fork start method")
        self._mp = multiprocessing.get_context("fork")
        self.run_tag = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_RUN_IDS)}"
        self.num_workers = (ctx.config.mp_workers
                            or ctx.config.num_executors)
        # The driver's provenance ledger (if sanitize mode is on) audits
        # segment register/release — unlink with readers is a violation.
        self.registry = ShmSegmentRegistry(on_unlink=self._segment_unlinked,
                                           ledger=ctx.ledger,
                                           vclock=ctx.vclock)
        self.shuffle_meta: dict[int, ShuffleMeta] = {}
        self.cache_blocks: dict[tuple[int, int], CacheEntry] = {}
        self._cache_segments: dict[int, list[str]] = {}
        self._segment_owner: dict[str, int] = {}
        # Race-sanitizer bookkeeping for the current wave: worker_id ->
        # actor name, split -> owning worker_id.
        self._wave_actors: dict[int, str] = {}
        self._split_worker: dict[int, int] = {}

    # -- arena accounting -----------------------------------------------------
    def _charge_segment(self, ref: SegmentRef, executor_id: int) -> None:
        """Charge a shared segment to its owning executor's pool."""
        assert ref.name is not None
        self._segment_owner[ref.name] = executor_id
        arena = self.ctx.executors[executor_id].arena
        if isinstance(arena, UnifiedMemoryManager):
            entry = f"shm:{ref.name}"
            arena.storage_register_pinned(entry)
            arena.storage_grow(entry, ref.nbytes)

    def _segment_unlinked(self, name: str, nbytes: int) -> None:
        executor_id = self._segment_owner.pop(name, None)
        if executor_id is None:
            return
        arena = self.ctx.executors[executor_id].arena
        if isinstance(arena, UnifiedMemoryManager):
            arena.storage_discard(f"shm:{name}")

    def _adopt_segment(self, ref: SegmentRef, executor_id: int) -> None:
        if ref.name is None:
            return
        self.registry.register(ref)
        self._charge_segment(ref, executor_id)
        self.stats.segments_created += 1
        self.stats.bytes_shared += ref.nbytes
        self.stats.segments_live = len(self.registry)

    # -- the backend protocol -------------------------------------------------
    def run_map_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                      stage_metrics: "StageMetrics",
                      job_metrics: "JobMetrics",
                      stage_start: float) -> bool:
        dep = stage.shuffle_dep
        assert dep is not None
        ctx = self.ctx
        plan = ctx.plan_shuffle(dep)
        info = dep.parent.udt_info
        if (dep.shuffle_id not in self.shuffle_meta and plan.decomposed
                and plan.schema is not None):
            self.shuffle_meta[dep.shuffle_id] = ShuffleMeta(
                schema=plan.schema,
                encode=plan.encode or (lambda value: value),
                decode=info.decode if info is not None else None,
                tag=dep.tag)
        outputs = self._run_stage(scheduler, stage, stage_metrics,
                                  job_metrics, stage_start,
                                  shuffle_plan=plan)
        meta = self.shuffle_meta.get(dep.shuffle_id)
        for split in sorted(outputs):
            out = outputs[split]
            for mb in out.map_blocks:
                if mb.ref is not None:
                    self._adopt_segment(mb.ref, out.executor_id)
                    assert meta is not None
                    block = MapOutputBlock(
                        records=None, nbytes=mb.nbytes, objects=mb.objects,
                        executor_id=out.executor_id, decomposed=True,
                        merge_penalty_bytes=mb.merge_penalty_bytes,
                        shm_ref=mb.ref, shm_schema=meta.schema,
                        shm_decode=meta.decode, shm_tag=meta.tag)
                else:
                    assert mb.blob is not None
                    self.stats.bytes_pickled_records += len(mb.blob)
                    block = MapOutputBlock(
                        records=pickle.loads(mb.blob), nbytes=mb.nbytes,
                        objects=mb.objects, executor_id=out.executor_id,
                        decomposed=plan.decomposed,
                        merge_penalty_bytes=mb.merge_penalty_bytes)
                ctx.shuffle_store.register(dep.shuffle_id, split,
                                           mb.reduce_part, block)
            self._register_caches(out)
        return True

    def run_result_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                         func: Callable[[Iterator], Any],
                         stage_metrics: "StageMetrics",
                         job_metrics: "JobMetrics",
                         stage_start: float) -> list | None:
        outputs = self._run_stage(scheduler, stage, stage_metrics,
                                  job_metrics, stage_start,
                                  result_func=func)
        results: list[Any] = []
        ctx = self.ctx
        for split in range(stage.num_tasks):
            out = outputs[split]
            assert out.result_blob is not None
            if ctx.vclock is not None:
                # The producer's notes were absorbed at the wave barrier
                # in _run_stage, so this consume has its edge.
                ctx.vclock.note_result_consumed(
                    f"t{stage.stage_id}.{split}.{out.attempt}")
            self.stats.bytes_pickled_results += len(out.result_blob)
            results.append(pickle.loads(out.result_blob))
            self._register_caches(out)
        return results

    def _register_caches(self, out: TaskOutput) -> None:
        ctx = self.ctx
        for cb in out.cache_blocks:
            key = (cb.rdd_id, cb.split)
            existing = self.cache_blocks.get(key)
            if existing is not None:
                if not existing.cold:
                    # Already materialized by an earlier task (cannot
                    # happen within a stage; defensive for replays):
                    # keep the first.
                    if cb.ref is not None and cb.ref.name is not None:
                        unlink_segment(cb.ref.name)
                    continue
                # A demoted block was recomputed: the fresh bytes
                # replace the cold entry and its stale segment.
                if existing.ref is not None \
                        and existing.ref.name is not None:
                    self.registry.release(existing.ref.name)
                    segs = self._cache_segments.get(cb.rdd_id)
                    if segs is not None and existing.ref.name in segs:
                        segs.remove(existing.ref.name)
            self.cache_blocks[key] = self._cache_entry(cb, out.executor_id)

    def _cache_entry(self, cb: CacheBlockOut, executor_id: int
                     ) -> CacheEntry:
        ctx = self.ctx
        rdd = ctx._rdds.get(cb.rdd_id)
        plan = ctx.plan_cache(rdd) if rdd is not None else None
        schema = plan.schema if plan is not None else None
        decode = plan.decode if plan is not None else None
        if cb.kind == "shm":
            assert cb.ref is not None
            if cb.ref.name is not None:
                self._adopt_segment(cb.ref, executor_id)
                self._cache_segments.setdefault(cb.rdd_id, []).append(
                    cb.ref.name)
            return CacheEntry(kind="shm", count=cb.count, ref=cb.ref,
                              schema=schema, decode=decode)
        assert cb.blob is not None
        self.stats.bytes_pickled_records += len(cb.blob)
        if cb.kind == "packed":
            return CacheEntry(kind="packed", count=cb.count, blob=cb.blob,
                              schema=schema, decode=decode)
        return CacheEntry(kind="records", count=cb.count,
                          records=pickle.loads(cb.blob))

    def demote_block(self, key: tuple[int, int]) -> None:
        """Mark a block cold: forked workers recompute it from lineage
        instead of resolving the shared-memory copy (the driver's cache
        moved the authoritative bytes into the mmap tier)."""
        entry = self.cache_blocks.get(key)
        if entry is None or entry.cold:
            return
        entry.cold = True
        if (self.ctx.ledger is not None and entry.ref is not None
                and entry.ref.name is not None):
            self.ctx.ledger.note_demote("segment", entry.ref.name)
        if (self.ctx.vclock is not None and entry.ref is not None
                and entry.ref.name is not None):
            self.ctx.vclock.note_demote("segment", entry.ref.name)
        self.stats.extra["blocks_demoted"] = \
            self.stats.extra.get("blocks_demoted", 0) + 1

    def unpersist_rdd(self, rdd_id: int) -> None:
        for key in [k for k in self.cache_blocks if k[0] == rdd_id]:
            del self.cache_blocks[key]
        for name in self._cache_segments.pop(rdd_id, []):
            self.registry.release(name)
        self.stats.segments_live = len(self.registry)

    def shutdown(self) -> None:
        self.cache_blocks.clear()
        self._cache_segments.clear()
        self.registry.release_all()
        self.stats.segments_live = 0

    # -- the wave engine ------------------------------------------------------
    def _run_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                   stage_metrics: "StageMetrics",
                   job_metrics: "JobMetrics", stage_start: float,
                   shuffle_plan: Any = None,
                   result_func: Callable | None = None,
                   ) -> dict[int, TaskOutput]:
        ctx = self.ctx
        cfg = ctx.config
        injector = ctx.fault_injector
        recovery = job_metrics.recovery
        pending: dict[int, int] = {s: 0 for s in range(stage.num_tasks)}
        failures: dict[int, int] = {s: 0 for s in range(stage.num_tasks)}
        outputs: dict[int, TaskOutput] = {}
        reports: list[_AttemptReport] = []
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
            state = StageState(
                ctx=ctx, stage=stage,
                is_map_stage=result_func is None,
                result_func=result_func, shuffle_plan=shuffle_plan,
                shuffle_meta=self.shuffle_meta,
                cache_blocks=self.cache_blocks,
                fault_plans=fault_plans, attempts=dict(pending),
                num_executors=len(ctx.executors), run_tag=self.run_tag)
            nworkers = max(1, min(self.num_workers, len(wave)))
            assignments = [wave[w::nworkers] for w in range(nworkers)]
            self._wave_actors = {}
            self._split_worker = {}
            if ctx.vclock is not None:
                # Fork edges: each worker's checker starts from a
                # snapshot of the driver clock taken before the fork.
                for worker_id, splits in enumerate(assignments):
                    actor = f"w{stage.stage_id}.{waves}.{worker_id}"
                    self._wave_actors[worker_id] = actor
                    for split in splits:
                        self._split_worker[split] = worker_id
                    state.vclock_snapshots[worker_id] = {
                        "actor": actor,
                        "clock": ctx.vclock.fork(actor)}
            queue = self._mp.Queue()
            procs = []
            for worker_id, splits in enumerate(assignments):
                proc = self._mp.Process(
                    target=worker_main,
                    args=(state, worker_id, splits, queue), daemon=True)
                proc.start()
                procs.append(proc)
            oks, fails, deaths = self._gather(procs, queue, assignments,
                                              stage, pending, deadline)
            # One process death is one lost executor, however many of
            # its assigned tasks went down with it.
            recovery.executors_lost += deaths
            self.stats.worker_deaths += deaths
            queue.close()
            for proc in procs:
                proc.join(timeout=5.0)
            if ctx.vclock is not None:
                # The wave barrier: every worker is joined, so all of
                # them are dead by the time the next wave (or a sweep
                # outside _gather) runs.
                for actor in self._wave_actors.values():
                    ctx.vclock.exit_actor(actor)
            self.stats.mp_tasks += len(oks) + len(fails)
            for out in oks:
                if ctx.vclock is not None and out.vclock_notes is not None:
                    # Receive edge: replay the worker's segment accesses
                    # and join its clock into the driver's.
                    ctx.vclock.absorb(out.vclock_notes)
                outputs[out.split] = out
                attempt = pending.pop(out.split)
                reports.append(_AttemptReport(
                    split=out.split, attempt=attempt,
                    executor_id=out.executor_id, status="success",
                    duration_ms=out.duration_ms,
                    records_read=out.records_read, events=out.events))
                if attempt > 0:
                    recovery.task_retries += attempt
            for fail in sorted(fails, key=lambda f: f.split):
                split = fail.split
                if ctx.vclock is not None \
                        and fail.vclock_notes is not None:
                    ctx.vclock.absorb(fail.vclock_notes)
                reports.append(_AttemptReport(
                    split=split, attempt=fail.attempt,
                    executor_id=fail.executor_id, status=fail.status,
                    duration_ms=fail.duration_ms, events=fail.events))
                recovery.task_failures += 1
                failures[split] += 1
                if fail.status == "executor-lost":
                    # The dead worker reported nothing: sweep whatever
                    # the attempt managed to pack before dying.  The
                    # vclock saw the death confirmation in _gather
                    # (exit_actor), so the owner is provably dead here.
                    prefix = self._attempt_prefix(stage, split,
                                                  fail.attempt)
                    sweep_segments(prefix)
                    if ctx.vclock is not None:
                        owner_id = self._split_worker.get(split)
                        ctx.vclock.note_sweep(
                            prefix,
                            owner=self._wave_actors.get(owner_id)
                            if owner_id is not None else None)
                if fail.status == "error":
                    # Non-injected failures are driver errors, as in the
                    # sim path (which only retries injected fault kinds).
                    self._flush(scheduler, stage_metrics, reports,
                                stage_start, real_start, waves)
                    raise ExecutionError(
                        f"mp task {stage.stage_id}.{split} "
                        f"(attempt {fail.attempt}) failed: {fail.message}")
                if failures[split] >= cfg.faults.max_task_failures:
                    self._flush(scheduler, stage_metrics, reports,
                                stage_start, real_start, waves)
                    raise StageAbortError(
                        stage.stage_id, split, failures[split],
                        TaskKilledError(stage.stage_id, split,
                                        fail.attempt))
                pending[split] = fail.attempt + 1
        self._flush(scheduler, stage_metrics, reports, stage_start,
                    real_start, waves)
        return outputs

    def _attempt_prefix(self, stage: "Stage", split: int,
                        attempt: int) -> str:
        return f"{self.run_tag}-t{stage.stage_id}p{split}a{attempt}-"

    def _flush(self, scheduler: "DAGScheduler",
               stage_metrics: "StageMetrics",
               reports: list[_AttemptReport], stage_start: float,
               real_start: float, waves: int) -> None:
        """Fold buffered attempts into metrics/trace, in split order.

        Workers finish in wall-clock order; sorting here makes the
        emitted structure — task metrics rows, relayed trace events —
        identical across runs of the same program.
        """
        ctx = self.ctx
        elapsed_ms = (time.perf_counter() - real_start) * 1000.0
        for report in sorted(reports, key=lambda r: (r.split, r.attempt)):
            stage_metrics.tasks.append(TaskMetrics(
                task_id=report.split, stage_id=stage_metrics.stage_id,
                executor_id=report.executor_id, attempt=report.attempt,
                status=report.status, records_read=report.records_read,
                compute_ms=report.duration_ms,
                duration_ms=report.duration_ms))
            for event in report.events:
                # Worker timestamps are relative to its fork; re-anchor
                # them at the stage's driver timestamp.  The pid is the
                # worker-assigned executor trace pid, same numbering the
                # sim backend uses — traces stay single-file.
                if ctx.vclock is not None:
                    ctx.vclock.note_relay(stage_start + event.ts_ms,
                                          stage_start, pid=event.pid)
                ctx.tracer.emit(dataclasses.replace(
                    event, ts_ms=stage_start + event.ts_ms))
        ctx.tracer.instant(
            f"mp:stage:{stage_metrics.stage_id}", "mp",
            ts_ms=stage_start, stage_id=stage_metrics.stage_id,
            waves=waves, workers=self.num_workers,
            segments_live=len(self.registry))
        reports.clear()
        # The mp clock policy: real elapsed time becomes the simulated
        # stage wall for every executor (clocks never go backwards).
        for executor in ctx.executors:
            executor.clock.advance_to(stage_start + elapsed_ms)

    def _gather(self, procs: list, queue: Any,
                assignments: list[list[int]], stage: "Stage",
                pending: dict[int, int], deadline: float,
                ) -> tuple[list[TaskOutput], list[TaskFailure], int]:
        """Drain one wave's result queue until every worker is accounted
        for — by its "done" sentinel or by its corpse.  Returns the
        wave's outputs, failures and the count of workers that died."""
        oks: list[TaskOutput] = []
        fails: list[TaskFailure] = []
        done: set[int] = set()
        reported: set[int] = set()
        deaths = 0

        def dispatch(message: tuple) -> None:
            kind, payload = message
            if kind == "ok":
                oks.append(payload)
                reported.add(payload.split)
            elif kind == "fail":
                fails.append(payload)
                reported.add(payload.split)
            else:  # "done"
                done.add(payload)

        while len(done) < len(procs):
            if time.monotonic() >= deadline:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    proc.join(timeout=5.0)
                if self.ctx.vclock is not None:
                    # Every worker was just terminated and joined.
                    for actor in self._wave_actors.values():
                        self.ctx.vclock.exit_actor(actor)
                for split, attempt in sorted(pending.items()):
                    if split not in reported:
                        sweep_segments(
                            self._attempt_prefix(stage, split, attempt))
                raise ExecutionError(
                    f"mp stage {stage.stage_id} exceeded "
                    f"mp_stage_timeout_s="
                    f"{self.ctx.config.mp_stage_timeout_s}")
            try:
                dispatch(queue.get(timeout=0.05))
                continue
            except Empty:
                pass
            for worker_id, proc in enumerate(procs):
                if worker_id in done or proc.is_alive():
                    continue
                if proc.exitcode is None:
                    continue
                # The worker exited without its sentinel reaching us yet:
                # drain any messages it flushed before dying, then treat
                # what is still unreported as lost with the process.
                while True:
                    try:
                        dispatch(queue.get(timeout=0.05))
                    except Empty:
                        break
                if worker_id in done:
                    continue
                done.add(worker_id)
                deaths += 1
                if self.ctx.vclock is not None:
                    # Death confirmed (corpse with an exit code): the
                    # actor leaves the live set before any orphan sweep.
                    actor = self._wave_actors.get(worker_id)
                    if actor is not None:
                        self.ctx.vclock.exit_actor(actor)
                for split in assignments[worker_id]:
                    if split in reported:
                        continue
                    attempt = pending[split]
                    reported.add(split)
                    executor_id = (split + attempt) % len(
                        self.ctx.executors)
                    fails.append(TaskFailure(
                        split=split, attempt=attempt,
                        executor_id=executor_id, status="executor-lost",
                        message=f"worker {worker_id} died "
                                f"(exit {proc.exitcode})"))
        return oks, fails, deaths
