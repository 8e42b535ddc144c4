"""The DAG scheduler: jobs → stages → tasks — with fault recovery.

Walking a job's lineage graph backwards, every :class:`ShuffleDependency`
cuts a stage boundary, exactly as in Spark: parent *shuffle-map stages*
write partitioned map outputs, the final *result stage* runs the action.
Stages execute in topological order; each stage's partitions become tasks
assigned round-robin to the executors, and the stage ends when its slowest
executor finishes (a barrier that synchronizes the simulated clocks).

Tasks may fail (see :mod:`repro.spark.faults`); the scheduler recovers:

* a **killed task attempt** is retried on the next executor after a capped
  exponential backoff on the simulated clock, up to
  ``MAX_TASK_FAILURES`` attempts — then the stage aborts with a clean
  :class:`~repro.errors.StageAbortError`;
* a **lost executor** has its cache blocks and shuffle map outputs
  invalidated; the lineage that produced those outputs is re-executed on
  the surviving topology before the failed task retries;
* a **failed shuffle fetch** (missing or corrupt block) regenerates just
  the map output it names, then retries the reduce task;
* **straggler tasks** may be speculatively re-launched on the least-loaded
  executor; the first (original) result wins, the duplicate's work is
  counted in the metrics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..errors import (
    ExecutorLostError,
    FetchFailedError,
    StageAbortError,
    TaskKilledError,
)
from .faults import (
    EXECUTOR_RESTART_MS,
    MAX_TASK_FAILURES,
    RETRY_BACKOFF_FACTOR,
    RETRY_BACKOFF_MAX_MS,
    RETRY_BACKOFF_MS,
    SPECULATION_MULTIPLIER,
)
from .metrics import JobMetrics, StageMetrics, TaskMetrics
from .rdd import Dependency, RDD, ShuffleDependency
from .shuffle import MapSideWriter, ShuffleBlockStore

if TYPE_CHECKING:
    from .context import DecaContext
    from .executor import Executor

# A task body: runs the attempt on *task* for partition *split* and
# returns the attempt's result (None for shuffle-map tasks).
TaskBody = Callable[["TaskContext", int], Any]


@dataclass
class TaskContext:
    """Per-task state handed through the compute pipeline."""

    executor: "Executor"
    metrics: TaskMetrics
    _start_ms: float = 0.0
    _gc_start_ms: float = 0.0
    # Unified-mode arena task slot (fair-share accounting key).
    _arena_key: int | None = None
    # Shuffle bytes this attempt spilled, map-side buffer and reduce-side
    # merge alike; they count toward the run only if the attempt succeeds.
    spilled_bytes: int = 0


@dataclass
class Stage:
    """A pipelined set of tasks ending at a shuffle or the action."""

    stage_id: int
    rdd: RDD
    shuffle_dep: ShuffleDependency | None  # None for the result stage
    parents: list["Stage"] = field(default_factory=list)

    @property
    def is_result_stage(self) -> bool:
        return self.shuffle_dep is None

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions


class DAGScheduler:
    """Builds and runs the stage graph of each job."""

    def __init__(self, ctx: "DecaContext") -> None:
        self.ctx = ctx
        self._stage_ids = itertools.count()
        self._job_ids = itertools.count()
        # Shuffles whose map outputs were already produced by an earlier
        # job (Spark reuses shuffle files across jobs of one application).
        self._shuffles_done: set[int] = set()
        # shuffle_id -> the map stage that produces it, kept across jobs
        # so lost outputs can be regenerated from lineage at any time.
        self._shuffle_stages: dict[int, Stage] = {}

    # -- stage graph construction -----------------------------------------------
    def _build_stages(self, rdd: RDD) -> Stage:
        """Return the result stage for *rdd*, with parents linked."""
        shuffle_to_stage: dict[int, Stage] = {}

        def stage_for_shuffle(dep: ShuffleDependency) -> Stage:
            existing = shuffle_to_stage.get(dep.shuffle_id)
            if existing is not None:
                return existing
            # Number parents before children (ids assigned after the
            # recursive walk), matching Spark's stage numbering.
            parents = parent_stages(dep.parent)
            stage = Stage(next(self._stage_ids), dep.parent, dep,
                          parents=parents)
            shuffle_to_stage[dep.shuffle_id] = stage
            return stage

        def parent_stages(r: RDD) -> list[Stage]:
            # Depth-first, a node's dependencies left to right: the left
            # lineage of a two-sided narrow join runs (and is numbered)
            # before the right one's.
            parents: list[Stage] = []
            visited: set[int] = set()
            pending: list[Dependency] = list(reversed(r.deps))
            while pending:
                dep = pending.pop()
                if isinstance(dep, ShuffleDependency):
                    parents.append(stage_for_shuffle(dep))
                    continue
                node = dep.parent
                if node.rdd_id not in visited:
                    visited.add(node.rdd_id)
                    pending.extend(reversed(node.deps))
            return parents

        parents = parent_stages(rdd)
        return Stage(next(self._stage_ids), rdd, None, parents=parents)

    # -- execution ----------------------------------------------------------------
    def run_job(self, rdd: RDD, func: Callable[[Any], Any],
                name: str) -> list[Any]:
        """Execute the action *func* over every partition of *rdd*."""
        job_id = next(self._job_ids)
        metrics = JobMetrics(job_id=job_id, name=name)
        start_ms = self._sync_clocks()

        result_stage = self._build_stages(rdd)
        order = self._topological(result_stage)
        backend = self.ctx.backend
        try:
            # The stages this job will run are known here: a backend
            # with job-scoped resources (the mp executors) sets them up
            # now and gives them back whatever way the job ends.
            backend.begin_job(
                [stage for stage in order
                 if stage.shuffle_dep is None
                 or stage.shuffle_dep.shuffle_id not in self._shuffles_done],
                func)
            for stage in order:
                if stage.is_result_stage:
                    continue
                assert stage.shuffle_dep is not None
                self._shuffle_stages[stage.shuffle_dep.shuffle_id] = stage
                if stage.shuffle_dep.shuffle_id in self._shuffles_done:
                    continue
                self._run_shuffle_map_stage(stage, metrics)
                self._shuffles_done.add(stage.shuffle_dep.shuffle_id)

            results = self._run_result_stage(result_stage, func, metrics)
        finally:
            backend.end_job()
        metrics.wall_ms = self._sync_clocks() - start_ms
        self.ctx.tracer.complete(
            f"job:{name}", "job", ts_ms=start_ms,
            dur_ms=metrics.wall_ms, job_id=job_id)
        self.ctx._record_job(metrics)
        return results

    def _topological(self, result_stage: Stage) -> list[Stage]:
        order: list[Stage] = []
        seen: set[int] = set()

        def visit(stage: Stage) -> None:
            if stage.stage_id in seen:
                return
            seen.add(stage.stage_id)
            for parent in stage.parents:
                visit(parent)
            order.append(stage)

        visit(result_stage)
        return order

    # -- task bodies ---------------------------------------------------------------
    def _map_task_body(self, stage: Stage,
                       store: ShuffleBlockStore) -> TaskBody:
        """The work of one shuffle-map task: write partitioned outputs."""
        dep = stage.shuffle_dep
        assert dep is not None
        ctx = self.ctx
        plan = ctx.plan_shuffle(dep)

        def body(task: TaskContext, split: int) -> None:
            writer = MapSideWriter(
                task.executor, dep.shuffle_id, split, dep.num_reduce,
                partitioner=dep.partitioner or ctx.partitioner,
                kind=dep.kind,
                merge_value=dep.merge_value, plan=plan)
            try:
                records = stage.rdd.iterator(split, task)
                writer.write_all(self._tagged(records, dep))
                writer.flush(store)
            except Exception:
                # The attempt dies: its buffer becomes garbage, nothing
                # (more) is registered; the retry starts from scratch.
                writer.abort()
                raise
            task.spilled_bytes += writer.spilled_bytes

        return body

    @staticmethod
    def _tagged(records, dep: ShuffleDependency):
        """Cogroup sides tag their values so the reader can split them."""
        if dep.tag is None:
            return records
        return ((key, (dep.tag, value)) for key, value in records)

    # -- stage runners ---------------------------------------------------------------
    def _run_shuffle_map_stage(self, stage: Stage,
                               job_metrics: JobMetrics) -> None:
        dep = stage.shuffle_dep
        assert dep is not None
        ctx = self.ctx
        stage_metrics = StageMetrics(stage.stage_id,
                                     f"shuffle-map:{stage.rdd.name}")
        stage_start = self._sync_clocks()
        ctx.shuffle_store.set_map_parts(dep.shuffle_id, stage.num_tasks)
        if not ctx.backend.run_map_stage(self, stage, stage_metrics,
                                         job_metrics, stage_start):
            # The sim path: the sequential simulated attempt loop
            # (speculation included) runs exactly as it always has.
            body = self._map_task_body(stage, ctx.shuffle_store)
            for split in range(stage.num_tasks):
                self._run_task_attempts(stage, split, body, stage_metrics,
                                        job_metrics)
            self._maybe_speculate(stage, stage_metrics, job_metrics)
        stage_metrics.wall_ms = self._sync_clocks() - stage_start
        self._emit_stage_span(stage_metrics, stage_start)
        job_metrics.stages.append(stage_metrics)

    def _run_result_stage(self, stage: Stage,
                          func: Callable[[Any], Any],
                          job_metrics: JobMetrics) -> list[Any]:
        stage_metrics = StageMetrics(stage.stage_id,
                                     f"result:{stage.rdd.name}")
        stage_start = self._sync_clocks()

        backend_results = self.ctx.backend.run_result_stage(
            self, stage, func, stage_metrics, job_metrics, stage_start)
        if backend_results is not None:
            results = backend_results
        else:
            def body(task: TaskContext, split: int) -> Any:
                return func(stage.rdd.iterator(split, task))

            results = []
            for split in range(stage.num_tasks):
                results.append(self._run_task_attempts(
                    stage, split, body, stage_metrics, job_metrics))
            self._maybe_speculate(stage, stage_metrics, job_metrics,
                                  body=body)
        stage_metrics.wall_ms = self._sync_clocks() - stage_start
        self._emit_stage_span(stage_metrics, stage_start)
        job_metrics.stages.append(stage_metrics)
        return results

    def _emit_stage_span(self, stage_metrics: StageMetrics,
                         start_ms: float) -> None:
        self.ctx.tracer.complete(
            f"stage:{stage_metrics.name}", "stage", ts_ms=start_ms,
            dur_ms=stage_metrics.wall_ms,
            stage_id=stage_metrics.stage_id,
            attempts=stage_metrics.attempts,
            failed_attempts=stage_metrics.failed_attempts)

    # -- the retry loop ----------------------------------------------------------------
    def _run_task_attempts(self, stage: Stage, split: int, body: TaskBody,
                           stage_metrics: StageMetrics,
                           job_metrics: JobMetrics) -> Any:
        """Run one task to success, retrying failed attempts.

        Every attempt — failed or successful — lands in *stage_metrics*;
        recovery actions (backoff, executor restart, lineage re-execution)
        are charged to the simulated clocks and counted in the job's
        :class:`~repro.spark.metrics.RecoveryMetrics`.
        """
        ctx = self.ctx
        injector = ctx.fault_injector
        recovery = job_metrics.recovery
        failures = 0
        attempt = 0
        not_before_ms = 0.0
        while True:
            executor = ctx.executor_for(split, attempt)
            if not_before_ms > 0.0:
                # The retry cannot start before the backoff wait ends.
                executor.clock.advance_to(not_before_ms)
            task = TaskContext(
                executor=executor,
                metrics=TaskMetrics(task_id=split,
                                    stage_id=stage.stage_id,
                                    attempt=attempt))
            plan = (injector.plan_task(stage.stage_id, split, attempt)
                    if injector.enabled else None)
            executor.begin_task(task)
            if plan is not None:
                executor.arm_fault(plan)
            try:
                result = body(task, split)
            except TaskKilledError as exc:
                executor.abort_task(task, "killed")
                stage_metrics.tasks.append(task.metrics)
                recovery.task_failures += 1
                failures += 1
                self._check_abort(stage, split, failures, exc)
                not_before_ms = self._backoff_deadline(
                    executor, failures, recovery)
            except FetchFailedError as exc:
                executor.abort_task(task, "fetch-failed")
                stage_metrics.tasks.append(task.metrics)
                recovery.fetch_failures += 1
                failures += 1
                self._check_abort(stage, split, failures, exc)
                self._recover_map_output(exc.shuffle_id, exc.map_part,
                                         job_metrics)
                not_before_ms = 0.0
            except ExecutorLostError as exc:
                executor.abort_task(task, "executor-lost")
                stage_metrics.tasks.append(task.metrics)
                recovery.task_failures += 1
                failures += 1
                self._check_abort(stage, split, failures, exc)
                exclude = (None if stage.shuffle_dep is None
                           else (stage.shuffle_dep.shuffle_id, split))
                self._handle_executor_loss(executor, job_metrics,
                                           exclude=exclude)
                not_before_ms = 0.0
            else:
                executor.end_task(task)
                stage_metrics.tasks.append(task.metrics)
                if attempt > 0:
                    recovery.task_retries += attempt
                return result
            attempt += 1

    def _check_abort(self, stage: Stage, split: int, failures: int,
                     exc: Exception) -> None:
        if failures >= MAX_TASK_FAILURES:
            raise StageAbortError(stage.stage_id, split, failures,
                                  exc) from exc

    def _backoff_deadline(self, executor: "Executor", failures: int,
                          recovery) -> float:
        """Capped exponential backoff, paid on the simulated clock."""
        wait = min(
            RETRY_BACKOFF_MS * RETRY_BACKOFF_FACTOR ** (failures - 1),
            RETRY_BACKOFF_MAX_MS)
        recovery.recovery_ms += wait
        return executor.clock.now_ms + wait

    # -- recovery actions --------------------------------------------------------------
    def _handle_executor_loss(self, executor: "Executor",
                              job_metrics: JobMetrics,
                              exclude: tuple[int, int] | None = None
                              ) -> None:
        """Invalidate a lost executor's state and re-run lineage.

        The executor's cache blocks and shuffle outputs are gone; a fresh
        process replaces it after ``EXECUTOR_RESTART_MS``.  Every map
        output it held is regenerated from lineage right away (parents
        first — the lost pairs are sorted by shuffle id, and parent
        shuffles have lower ids than the children that read them).
        *exclude* names the (shuffle, partition) of the task whose crash
        we are handling: its retry loop will regenerate that one itself.
        """
        ctx = self.ctx
        recovery = job_metrics.recovery
        recovery.executors_lost += 1
        lost = ctx.shuffle_store.remove_executor_outputs(
            executor.executor_id)
        executor.restart(EXECUTOR_RESTART_MS)
        recovery.recovery_ms += EXECUTOR_RESTART_MS
        for shuffle_id, map_part in lost:
            if (shuffle_id, map_part) == exclude:
                continue
            self._recover_map_output(shuffle_id, map_part, job_metrics)

    def _recover_map_output(self, shuffle_id: int, map_part: int,
                            job_metrics: JobMetrics) -> None:
        """Re-execute the lineage producing one lost/corrupt map output."""
        stage = self._shuffle_stages.get(shuffle_id)
        if stage is None:
            # The shuffle never ran (output lost before production) —
            # nothing to regenerate; the stage loop will produce it.
            return
        recovery = job_metrics.recovery
        recovery.recomputed_partitions += 1
        stage_metrics = StageMetrics(
            stage.stage_id, f"recompute:shuffle-map:{stage.rdd.name}")
        body = self._map_task_body(stage, self.ctx.shuffle_store)
        start_ms = max(e.clock.now_ms for e in self.ctx.executors)
        self._run_task_attempts(stage, map_part, body, stage_metrics,
                                job_metrics)
        stage_metrics.wall_ms = (
            max(e.clock.now_ms for e in self.ctx.executors) - start_ms)
        recovery.recovery_ms += stage_metrics.wall_ms
        self._emit_stage_span(stage_metrics, start_ms)
        job_metrics.stages.append(stage_metrics)

    # -- speculation -------------------------------------------------------------------
    def _maybe_speculate(self, stage: Stage, stage_metrics: StageMetrics,
                         job_metrics: JobMetrics,
                         body: TaskBody | None = None) -> None:
        """Re-launch straggler tasks on the least-loaded executor.

        The original result always wins (it finished first — this is the
        dedup rule); the duplicate's attempt is recorded in the metrics,
        and a *win* is counted when the copy beat the original's duration.
        Shuffle-map duplicates write into a throwaway block store so the
        committed map outputs stay those of the winning attempt.
        """
        if not self.ctx.config.faults.speculation:
            return
        winners: dict[int, TaskMetrics] = {}
        for metrics in stage_metrics.tasks:
            if metrics.status == "success" and not metrics.speculative:
                winners[metrics.task_id] = metrics
        if len(winners) < 2:
            return
        durations = sorted(m.duration_ms for m in winners.values())
        median = durations[len(durations) // 2]
        threshold = median * SPECULATION_MULTIPLIER
        if threshold <= 0.0:
            return
        if body is None:
            body = self._map_task_body(stage, ShuffleBlockStore())
        recovery = job_metrics.recovery
        for split in sorted(winners):
            original = winners[split]
            if original.duration_ms <= threshold:
                continue
            executor = min(
                self.ctx.executors,
                key=lambda e: (e.clock.now_ms, e.executor_id))
            attempt = sum(1 for m in stage_metrics.tasks
                          if m.task_id == split)
            task = TaskContext(
                executor=executor,
                metrics=TaskMetrics(task_id=split,
                                    stage_id=stage.stage_id,
                                    attempt=attempt, speculative=True))
            executor.begin_task(task)
            try:
                body(task, split)
            except ExecutorLostError:
                # The duplicate is dropped, but the crash is real: the
                # executor's state must still be invalidated and rebuilt.
                executor.abort_task(task, "executor-lost")
                self._handle_executor_loss(executor, job_metrics)
            except (TaskKilledError, FetchFailedError):
                # A failed duplicate is simply dropped — the original
                # result already won.
                executor.abort_task(task, "killed")
            else:
                executor.end_task(task)
                if task.metrics.duration_ms < original.duration_ms:
                    recovery.speculative_wins += 1
            recovery.speculative_tasks += 1
            stage_metrics.tasks.append(task.metrics)

    def _sync_clocks(self) -> float:
        """Barrier: advance every executor to the slowest one's time."""
        executors = self.ctx.executors
        latest = max(e.clock.now_ms for e in executors)
        for executor in executors:
            executor.clock.advance_to(latest)
        return latest
