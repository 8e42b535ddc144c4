"""The pluggable execution-backend protocol.

A backend decides *how task attempts run*: the :class:`SimBackend`
declines every stage so the scheduler's original in-process simulated
loop executes unchanged (byte-for-byte — every existing benchmark and
trace is untouched), while :class:`~repro.exec.mp.MpBackend` claims
stages and runs their tasks on a real ``multiprocessing`` worker pool
with shared-memory Deca pages.

The protocol is deliberately coarse — a backend is told when a *job*
begins and ends and takes whole *stages*, not tasks — because the job
is the natural fork point: lineage, closures and plans are all driver
state once the stage graph is built, so executors forked there inherit
them for free and only parent map outputs and cached blocks produced
*during* the job have to be sent after them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from ..spark.context import DecaContext
    from ..spark.metrics import JobMetrics, StageMetrics
    from ..spark.scheduler import DAGScheduler, Stage


@dataclass
class BackendStats:
    """Cross-process traffic accounting (the zero-copy scoreboard).

    ``bytes_pickled_records`` is the number the paper's decomposition
    story is about: record payload that crossed a process boundary via
    serialization.  Decomposed shuffle and cache paths should drive it
    to ~0 — their payloads travel as ``bytes_shared`` (shared-memory
    segments read in place) instead.  Action results returned to the
    driver are counted separately: they exist under every backend.
    """

    backend: str = "sim"
    bytes_pickled_records: int = 0
    bytes_pickled_results: int = 0
    bytes_shared: int = 0
    segments_created: int = 0
    segments_live: int = 0
    mp_stages: int = 0
    mp_tasks: int = 0
    workers_forked: int = 0
    worker_deaths: int = 0

    @property
    def bytes_pickled(self) -> int:
        return self.bytes_pickled_records + self.bytes_pickled_results

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "bytes_pickled_records": self.bytes_pickled_records,
            "bytes_pickled_results": self.bytes_pickled_results,
            "bytes_pickled": self.bytes_pickled,
            "bytes_shared": self.bytes_shared,
            "segments_created": self.segments_created,
            "segments_live": self.segments_live,
            "mp_stages": self.mp_stages,
            "mp_tasks": self.mp_tasks,
            "workers_forked": self.workers_forked,
            "worker_deaths": self.worker_deaths,
        }


class ExecutionBackend:
    """Base backend: declines every stage (the scheduler runs inline)."""

    name = "sim"

    def __init__(self, ctx: "DecaContext") -> None:
        self.ctx = ctx
        self.stats = BackendStats(backend=self.name)

    def begin_job(self, stages: "list[Stage]",
                  func: Callable[[Iterator], Any]) -> None:
        """A job is about to run *stages* (map stages in execution
        order, then the result stage *func* is applied in)."""

    def end_job(self) -> None:
        """The job begun last is over — finished, failed or interrupted."""

    def run_map_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                      stage_metrics: "StageMetrics",
                      job_metrics: "JobMetrics",
                      stage_start: float) -> bool:
        """Run a whole shuffle-map stage; ``False`` means "not mine"."""
        return False

    def run_result_stage(self, scheduler: "DAGScheduler", stage: "Stage",
                         func: Callable[[Iterator], Any],
                         stage_metrics: "StageMetrics",
                         job_metrics: "JobMetrics",
                         stage_start: float) -> list | None:
        """Run a result stage; ``None`` means "not mine"."""
        return None

    def unpersist_rdd(self, rdd_id: int) -> None:
        """An RDD was unpersisted: drop backend-held cache blocks."""

    def shutdown(self) -> None:
        """Release every backend resource (context teardown)."""


class SimBackend(ExecutionBackend):
    """The simulated backend.

    It holds no state and claims no stages: the scheduler's sequential
    attempt loop over simulated executors — heaps, clocks, GC pauses,
    speculation — runs exactly as before this layer existed.
    """

    name = "sim"


def create_backend(ctx: "DecaContext") -> ExecutionBackend:
    """Build the backend `ctx.config.execution_backend` selects."""
    kind = ctx.config.execution_backend
    if kind == "mp":
        from .mp import MpBackend
        return MpBackend(ctx)
    return SimBackend(ctx)
