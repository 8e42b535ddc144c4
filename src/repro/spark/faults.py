"""Deterministic failure injection for the mini-Spark engine.

Production Spark's defining property — tasks and executors die and the
lineage graph recovers them — is what makes cached, decomposed data
meaningful at all: a cache only matters if partitions can be lost and
rebuilt.  :class:`FaultInjector` supplies the failures; the DAG scheduler
(:mod:`repro.spark.scheduler`) supplies the recovery.

Two injection styles compose:

* **probabilistic** — per-attempt kill and fetch-corruption probabilities
  drawn from one seeded ``random.Random``, so a run's entire failure
  sequence is a pure function of the seed and the (deterministic)
  execution order;
* **scripted** — exact :class:`~repro.config.ScriptedFault` points, for
  tests that need a failure at stage 2, partition 3, attempt 0 and nowhere
  else (the only way to crash an executor).

The injector never sleeps, never reads wall time and never touches the
process RNG: fault runs are reproducible bit-for-bit (the determinism CI
job asserts two seeded runs emit identical metrics JSON).

The recovery constants the scheduler applies (``spark.task.maxFailures``
and friends) live here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..config import FaultConfig, ScriptedFault

#: Fault kinds a task-attempt plan can carry.
TASK_KILL = "task-kill"
EXECUTOR_CRASH = "executor-crash"
FETCH_CORRUPT = "fetch-corrupt"

#: Probabilistic kills strike after 0..MAX_KILL_OPS-1 compute charges, so
#: partially-executed tasks leave state the recovery must clean up.
MAX_KILL_OPS = 32
#: A task's attempts before its stage aborts (sim and mp backends alike).
MAX_TASK_FAILURES = 4
#: Capped exponential retry backoff, paid on the simulated clock:
#: ``RETRY_BACKOFF_MS * RETRY_BACKOFF_FACTOR ** (failures - 1)``, at most
#: ``RETRY_BACKOFF_MAX_MS``.
RETRY_BACKOFF_MS = 50.0
RETRY_BACKOFF_FACTOR = 2.0
RETRY_BACKOFF_MAX_MS = 1000.0
#: Simulated time a crashed executor's replacement takes to come up.
EXECUTOR_RESTART_MS = 500.0
#: With speculation on, a task slower than this multiple of its stage's
#: median duration is re-launched.
SPECULATION_MULTIPLIER = 1.5


@dataclass(frozen=True)
class TaskFaultPlan:
    """The injector's verdict for one task attempt.

    ``after_ops`` counts compute charges before the failure strikes:
    ``0`` means the attempt dies before running any user code, ``n > 0``
    kills it mid-computation (partial heap/buffer state must be cleaned
    up by the recovery path).
    """

    kind: str  # TASK_KILL or EXECUTOR_CRASH
    after_ops: int = 0


class FaultInjector:
    """Seeded source of task, executor and shuffle-fetch failures."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        # Scripted faults fire exactly once.
        self._pending: list[ScriptedFault] = list(config.scripted)
        self.injected_kills = 0
        self.injected_crashes = 0
        self.injected_corruptions = 0

    @property
    def enabled(self) -> bool:
        return self.config.injection_enabled

    # -- task attempts -----------------------------------------------------
    def plan_task(self, stage_id: int, partition: int,
                  attempt: int) -> TaskFaultPlan | None:
        """Decide whether (and how) this task attempt fails.

        Called once per attempt; the RNG is only consulted while
        probabilistic injection is configured, so scripted-only runs do
        not perturb the draw sequence of other injectors.
        """
        scripted = self._take_scripted(
            (TASK_KILL, EXECUTOR_CRASH),
            lambda f: (f.stage_id in (-1, stage_id)
                       and f.partition in (-1, partition)
                       and f.attempt == attempt))
        if scripted is not None:
            return self._record(TaskFaultPlan(scripted.kind,
                                              scripted.after_ops))
        cfg = self.config
        if cfg.task_kill_prob > 0.0 \
                and self._rng.random() < cfg.task_kill_prob:
            return self._record(TaskFaultPlan(
                TASK_KILL, self._rng.randrange(MAX_KILL_OPS)))
        return None

    # -- shuffle fetches ---------------------------------------------------
    def corrupt_fetch(self, shuffle_id: int, map_part: int,
                      reduce_part: int) -> bool:
        """Whether this shuffle-block read returns corrupt bytes."""
        scripted = self._take_scripted(
            (FETCH_CORRUPT,),
            lambda f: (f.shuffle_id in (-1, shuffle_id)
                       and f.map_part in (-1, map_part)
                       and f.reduce_part in (-1, reduce_part)))
        if scripted is not None:
            self.injected_corruptions += 1
            return True
        cfg = self.config
        if cfg.fetch_corruption_prob > 0.0 \
                and self._rng.random() < cfg.fetch_corruption_prob:
            self.injected_corruptions += 1
            return True
        return False

    # -- internals ---------------------------------------------------------
    def _take_scripted(self, kinds, matches) -> ScriptedFault | None:
        for index, fault in enumerate(self._pending):
            if fault.kind in kinds and matches(fault):
                return self._pending.pop(index)
        return None

    def _record(self, plan: TaskFaultPlan) -> TaskFaultPlan:
        if plan.kind == EXECUTOR_CRASH:
            self.injected_crashes += 1
        else:
            self.injected_kills += 1
        return plan

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.config.seed}, "
                f"kills={self.injected_kills}, "
                f"crashes={self.injected_crashes}, "
                f"corruptions={self.injected_corruptions})")
