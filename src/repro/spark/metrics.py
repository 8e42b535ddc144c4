"""Task, stage and job metrics (the numbers every figure reports).

Every simulated time is tallied in integer ticks (``*_ticks``) and read
in milliseconds through its ``*_ms`` view (:class:`~repro.simtime.MsView`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simtime import MsView


@dataclass
class TaskMetrics:
    """Cost breakdown of one task attempt (Fig. 11's bars).

    With fault tolerance enabled a (stage, partition) pair may run several
    attempts; every attempt — failed, speculative or successful — lands in
    its stage's task list so the metrics count the work actually performed.
    """

    task_id: int = -1
    stage_id: int = -1
    executor_id: int = -1
    attempt: int = 0
    speculative: bool = False
    # "success" | "killed" | "fetch-failed" | "executor-lost"
    status: str = "success"
    records_read: int = 0
    compute_ticks: int = 0
    gc_pause_ticks: int = 0
    deser_ticks: int = 0
    shuffle_read_ticks: int = 0
    shuffle_write_ticks: int = 0
    duration_ticks: int = 0

    compute_ms = MsView()
    gc_pause_ms = MsView()
    deser_ms = MsView()
    shuffle_read_ms = MsView()
    shuffle_write_ms = MsView()
    duration_ms = MsView()

    def add(self, other: "TaskMetrics") -> None:
        self.records_read += other.records_read
        self.compute_ticks += other.compute_ticks
        self.gc_pause_ticks += other.gc_pause_ticks
        self.deser_ticks += other.deser_ticks
        self.shuffle_read_ticks += other.shuffle_read_ticks
        self.shuffle_write_ticks += other.shuffle_write_ticks
        self.duration_ticks += other.duration_ticks


@dataclass
class RecoveryMetrics:
    """What fault recovery cost one job (attempts, retries, recomputation).

    ``recovery_ms`` sums the simulated time spent purely on recovery:
    retry backoff waits, executor restart delay and the re-execution of
    lineage that regenerated lost map outputs.
    """

    task_failures: int = 0
    task_retries: int = 0
    fetch_failures: int = 0
    executors_lost: int = 0
    recomputed_partitions: int = 0
    speculative_tasks: int = 0
    speculative_wins: int = 0
    recovery_ticks: int = 0

    recovery_ms = MsView()

    def add(self, other: "RecoveryMetrics") -> None:
        self.task_failures += other.task_failures
        self.task_retries += other.task_retries
        self.fetch_failures += other.fetch_failures
        self.executors_lost += other.executors_lost
        self.recomputed_partitions += other.recomputed_partitions
        self.speculative_tasks += other.speculative_tasks
        self.speculative_wins += other.speculative_wins
        self.recovery_ticks += other.recovery_ticks

    def to_dict(self) -> dict:
        return {
            "task_failures": self.task_failures,
            "task_retries": self.task_retries,
            "fetch_failures": self.fetch_failures,
            "executors_lost": self.executors_lost,
            "recomputed_partitions": self.recomputed_partitions,
            "speculative_tasks": self.speculative_tasks,
            "speculative_wins": self.speculative_wins,
            "recovery_ms": round(self.recovery_ms, 6),
        }


@dataclass
class StageMetrics:
    """Aggregate over one stage's tasks."""

    stage_id: int
    name: str
    tasks: list[TaskMetrics] = field(default_factory=list)
    wall_ticks: int = 0

    wall_ms = MsView()

    @property
    def totals(self) -> TaskMetrics:
        total = TaskMetrics(stage_id=self.stage_id)
        for task in self.tasks:
            total.add(task)
        return total

    @property
    def slowest_task(self) -> TaskMetrics | None:
        if not self.tasks:
            return None
        return max(self.tasks, key=lambda t: t.duration_ticks)

    @property
    def attempts(self) -> int:
        """Total task attempts, including failed and speculative ones."""
        return len(self.tasks)

    @property
    def failed_attempts(self) -> int:
        return sum(1 for t in self.tasks if t.status != "success")


@dataclass
class JobMetrics:
    """Aggregate over one job's stages."""

    job_id: int
    name: str
    stages: list[StageMetrics] = field(default_factory=list)
    wall_ticks: int = 0
    recovery: RecoveryMetrics = field(default_factory=RecoveryMetrics)

    wall_ms = MsView()

    @property
    def totals(self) -> TaskMetrics:
        total = TaskMetrics()
        for stage in self.stages:
            total.add(stage.totals)
        return total


@dataclass
class RunMetrics:
    """Everything measured across an application run.

    ``gc_pause_ms`` is the per-executor average the paper reports (Table 3
    averages "the values on all executors"); ``executor_gc_ms`` keeps the
    raw per-executor pauses.
    """

    jobs: list[JobMetrics] = field(default_factory=list)
    wall_ms: float = 0.0
    executor_gc_ms: dict[int, float] = field(default_factory=dict)
    executor_concurrent_gc_ms: dict[int, float] = field(default_factory=dict)
    minor_gc_count: int = 0
    full_gc_count: int = 0
    # Keyed by RDD *name*, not rdd_id: names are stable across runs while
    # ids come from a process-global counter (determinism requirement).
    cached_bytes: dict[str, int] = field(default_factory=dict)
    swapped_cache_bytes: int = 0
    spilled_shuffle_bytes: int = 0
    # Execution-backend traffic accounting (repro.exec.BackendStats):
    # pickled vs shared-memory bytes crossing process boundaries.
    backend: dict[str, "int | str"] = field(default_factory=dict)
    # Cold-tier counters (each executor's ColdTier.snapshot(), summed):
    # empty on the heap tier and when no mmap tier opened its file.
    tier: dict[str, "int | str"] = field(default_factory=dict)
    # The run's sanitizer summary (repro.obs.sanitizer): borrow and
    # vector-clock counters plus one count per rule slug, taken at
    # finish(); empty unless config.sanitize.
    sanitize: dict[str, int] = field(default_factory=dict)

    @property
    def gc_pause_ms(self) -> float:
        if not self.executor_gc_ms:
            return 0.0
        return sum(self.executor_gc_ms.values()) / len(self.executor_gc_ms)

    @property
    def total_cached_bytes(self) -> int:
        return sum(self.cached_bytes.values())

    @property
    def gc_fraction(self) -> float:
        """GC pause time as a fraction of wall time (Table 3's "ratio")."""
        if self.wall_ms <= 0:
            return 0.0
        return self.gc_pause_ms / self.wall_ms

    @property
    def recovery(self) -> RecoveryMetrics:
        """Fault-recovery totals across every job of the run."""
        total = RecoveryMetrics()
        for job in self.jobs:
            total.add(job.recovery)
        return total

    def to_dict(self) -> dict:
        """A JSON-ready snapshot of the run (bench trajectory output).

        Every value derives from the simulated clocks and the seeded
        RNGs, so two runs with identical seeds serialize byte-identically
        — the property the determinism CI job asserts.
        """
        out: dict = {
            "wall_ms": round(self.wall_ms, 6),
            "gc_pause_ms": round(self.gc_pause_ms, 6),
            "minor_gc_count": self.minor_gc_count,
            "full_gc_count": self.full_gc_count,
            "cached_bytes": dict(sorted(self.cached_bytes.items())),
            "swapped_cache_bytes": self.swapped_cache_bytes,
            "spilled_shuffle_bytes": self.spilled_shuffle_bytes,
            "recovery": self.recovery.to_dict(),
            "jobs": [
                {
                    "job_id": job.job_id,
                    "name": job.name,
                    "wall_ms": round(job.wall_ms, 6),
                    "recovery": job.recovery.to_dict(),
                    "stages": [
                        {
                            "stage_id": stage.stage_id,
                            "name": stage.name,
                            "wall_ms": round(stage.wall_ms, 6),
                            "attempts": stage.attempts,
                            "failed_attempts": stage.failed_attempts,
                            "tasks": [
                                {
                                    "task_id": task.task_id,
                                    "attempt": task.attempt,
                                    "executor_id": task.executor_id,
                                    "status": task.status,
                                    "speculative": task.speculative,
                                    "records_read": task.records_read,
                                    "duration_ms": round(
                                        task.duration_ms, 6),
                                    "gc_pause_ms": round(
                                        task.gc_pause_ms, 6),
                                }
                                for task in stage.tasks
                            ],
                        }
                        for stage in job.stages
                    ],
                }
                for job in self.jobs
            ],
        }
        if self.sanitize:
            # Only present when the sanitizer ran: keeps baselines for
            # plain runs byte-identical (determinism CI).
            out["sanitize"] = dict(sorted(self.sanitize.items()))
        return out
