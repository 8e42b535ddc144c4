"""Exception hierarchy for the Deca reproduction.

All library errors derive from :class:`DecaError` so that callers can catch
one base type.  Subsystems raise the most specific subclass available; none
of these wrap arbitrary exceptions silently.
"""

from __future__ import annotations


class DecaError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(DecaError):
    """An invalid or inconsistent :class:`repro.config.DecaConfig`."""


class HeapError(DecaError):
    """Base class for simulated-heap failures."""


class OutOfMemoryError(HeapError):
    """The simulated heap cannot satisfy an allocation even after a full GC.

    Mirrors ``java.lang.OutOfMemoryError`` in the simulated JVM.
    """


class AllocationError(HeapError):
    """An allocation request was malformed (negative size, dead group, ...)."""


class AnalysisError(DecaError):
    """Base class for UDT-classification / code-analysis failures."""


class TypeGraphError(AnalysisError):
    """A malformed UDT definition (unknown field type, bad type-set, ...)."""


class IRError(AnalysisError):
    """A malformed method body in the mini-IR."""


class MemoryLayoutError(DecaError):
    """A UDT cannot be laid out into bytes (e.g. it is a VST)."""


class PageError(DecaError):
    """Base class for page / page-group misuse."""


class PageOverflowError(PageError):
    """A write would run past the end of the allocated segment."""


class PageReclaimedError(PageError):
    """An access to a page group that was already reclaimed."""


class ExecutionError(DecaError):
    """A job failed while executing on the mini Spark engine."""


class ShuffleError(ExecutionError):
    """A shuffle read/write failure."""


class FaultError(ExecutionError):
    """Base class for injected / recovered failures (fault tolerance)."""


class TaskKilledError(FaultError):
    """A task attempt died (injected kill or executor-side failure)."""

    def __init__(self, stage_id: int, partition: int, attempt: int) -> None:
        super().__init__(
            f"task {stage_id}.{partition} (attempt {attempt}) killed")
        self.stage_id = stage_id
        self.partition = partition
        self.attempt = attempt


class ExecutorLostError(FaultError):
    """A whole executor process crashed mid-task.

    Its cache blocks and shuffle map outputs are gone; the scheduler must
    invalidate them and re-run the lineage that produced them.
    """

    def __init__(self, executor_id: int) -> None:
        super().__init__(f"executor {executor_id} lost")
        self.executor_id = executor_id


class FetchFailedError(FaultError):
    """A shuffle block could not be fetched (missing or corrupt).

    Carries the coordinates of the map output that must be regenerated
    before the reduce task can be retried — Spark's ``FetchFailed``.
    """

    def __init__(self, shuffle_id: int, map_part: int,
                 reduce_part: int, reason: str = "corrupt") -> None:
        super().__init__(
            f"fetch of shuffle {shuffle_id} block "
            f"({map_part}, {reduce_part}) failed: {reason}")
        self.shuffle_id = shuffle_id
        self.map_part = map_part
        self.reduce_part = reduce_part
        self.reason = reason


class StageAbortError(FaultError):
    """A task exhausted ``MAX_TASK_FAILURES`` attempts; the stage aborts."""

    def __init__(self, stage_id: int, partition: int,
                 failures: int, last: Exception) -> None:
        super().__init__(
            f"stage {stage_id} aborted: task {partition} failed "
            f"{failures} times; last failure: {last}")
        self.stage_id = stage_id
        self.partition = partition
        self.failures = failures
        self.last = last


class CacheError(ExecutionError):
    """A cache-manager failure (unknown block, bad storage level, ...)."""


class SanitizerError(DecaError):
    """The runtime sanitizer observed at least one violation: a borrow
    one (DECA30x: use-after-free extent, use-after-unlink segment,
    escaped adoption, leaked transient borrow, ...) or a race (DECA40x:
    an access with no happens-before edge to a reclaim, a refcount
    change outside the lock, a result consumed before its barrier, ...).

    Raised from ``DecaContext.finish()`` when ``DecaConfig.sanitize`` is
    on, so aliasing and ordering bugs fail the run loudly instead of
    yielding silently wrong results.  The per-rule violation counts of
    both families are attached as :attr:`summary`; the message lists
    every non-zero one.
    """

    def __init__(self, summary: dict[str, int]) -> None:
        shown = ", ".join(
            f"{name}={count}" for name, count in sorted(summary.items())
            if count)
        super().__init__(f"sanitizer detected violations: {shown}")
        self.summary = summary


class SqlError(DecaError):
    """An error in the mini columnar SQL engine (Table 6 baseline)."""


class SchemaError(SqlError):
    """A malformed schema or a row that does not match its schema."""
