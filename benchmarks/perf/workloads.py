"""The six benchmark workloads: pinned inputs, pinned configs, one job each.

A *job* is one complete application run — ``DecaContext`` construction
to ``ctx.finish()`` on inputs generated beforehand — or, for
``sql-suite``, ``SQL_PASSES`` closed-loop passes of the four-query suite
over tables that are already cached.  The seed feeds only the
``repro.data`` generators; the engine sees generated inputs.

Sizes are existing ``repro.bench.harness`` points, pinned here as
literals so that a change to the harness defaults cannot silently change
what the benchmark measures.  They are the smaller points of each family
(a job takes about a second on the 2-core box) because the builder
contract caps a whole run, set-up included, at well under 30 s and the
noise policy wants many jobs per run — see README.md.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from collections import Counter
from typing import Any

from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.apps.sql_queries import make_suite_engine, suite_queries
from repro.apps.wordcount import run_wordcount
from repro.config import KB, MB, DecaConfig, ExecutionMode
from repro.data import (labeled_points, power_law_graph, random_words,
                        rankings_table, uservisits_table)

from . import references

#: Fields whose ``DecaConfig`` defaults are read from the environment
#: (``REPRO_EXECUTION_BACKEND`` …).  Every workload pins them, and the
#: children also start with those variables removed.
ENV_PINNED = {"execution_backend": "sim", "mp_workers": 0,
              "cold_tier": "heap", "sanitize": False,
              "memory_mode": "static"}


def build_config(settings: dict[str, Any]) -> tuple[DecaConfig, list[str]]:
    """``DecaConfig`` from *settings*, dropping knobs that no longer exist.

    A later change may delete a configuration field (ROADMAP item 3);
    the benchmark then keeps running on the surviving behaviour and the
    result file names what was dropped.
    """
    known = {field.name for field in dataclasses.fields(DecaConfig)}
    wanted = {**ENV_PINNED, **settings}
    dropped = sorted(set(wanted) - known)
    kept = {key: value for key, value in wanted.items() if key in known}
    if "mode" in kept:
        kept["mode"] = ExecutionMode(kept["mode"])
    return DecaConfig(**kept), dropped


def config_to_json(config: DecaConfig) -> dict[str, Any]:
    """The effective config as plain JSON values."""
    def plain(value: Any) -> Any:
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value

    return plain(dataclasses.asdict(config))


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(count * scale))


def app_run_counters(run: Any) -> dict[str, float]:
    """Counts read from a finished run's public counters
    (``RunMetrics``, ``BackendStats``, ``TierStats``, tracer events)."""
    metrics = run.metrics
    events = run.ctx.tracer.events
    names = Counter(event.name for event in events)
    backend = metrics.backend
    return {
        "simtime.wall_ms": metrics.wall_ms,
        "jvm.heap.minor_gcs": metrics.minor_gc_count,
        "jvm.heap.full_gcs": metrics.full_gc_count,
        "jvm.heap.sim_gc_ms": sum(metrics.executor_gc_ms.values()),
        "spark.scheduler.jobs": len(metrics.jobs),
        "spark.scheduler.stages": sum(len(job.stages)
                                      for job in metrics.jobs),
        "spark.shuffle.spilled_bytes": metrics.spilled_shuffle_bytes,
        "spark.cache.swap_outs": names["cache:swap-out"],
        "spark.cache.swap_ins": names["cache:swap-in"],
        "memory.tier.bytes_moved_out": metrics.tier.get(
            "bytes_moved_out", 0),
        "memory.tier.bytes_moved_in": metrics.tier.get("bytes_moved_in", 0),
        "memory.tier.swap_copy_bytes": sum(
            executor.serializer.swap_copy_bytes_total
            for executor in run.ctx.executors),
        "exec.mp.stages": backend.get("mp_stages", 0),
        "exec.mp.tasks": backend.get("mp_tasks", 0),
        "exec.shm.segments_created": backend.get("segments_created", 0),
        "exec.shm.bytes_shared": backend.get("bytes_shared", 0),
        "exec.shm.bytes_pickled_records": backend.get(
            "bytes_pickled_records", 0),
        "exec.shm.bytes_pickled_results": backend.get(
            "bytes_pickled_results", 0),
        "obs.tracer.events": len(events),
        "sql.columnar.cached_bytes": 0,
    }


class Workload:
    """One named workload; subclasses fill in the application."""

    name: str
    settings: dict[str, Any]
    #: Share of the calibration kernel's slowdown this workload's jobs
    #: show when the box is in its slow mode (calibration.py): the slope
    #: of log(job seconds) on log(kernel seconds) over ~20 stable jobs
    #: spanning both modes, rounded to 0.05.  README.md has the fits.
    mode_sensitivity: float

    def generate(self, seed: int, scale: float) -> Any:
        """Seeded inputs (the only place the seed is used)."""
        raise NotImplementedError

    def sizes(self, inputs: Any) -> dict[str, int]:
        raise NotImplementedError

    def open(self, inputs: Any, config: DecaConfig) -> Any:
        """Build whatever outlives a job (only SQL has such state)."""
        return inputs

    def close(self, state: Any) -> None:
        return None

    def job(self, state: Any, config: DecaConfig) -> Any:
        """The timed region; returns an opaque run handle."""
        raise NotImplementedError

    def result(self, run: Any) -> Any:
        return run.result

    def counters(self, run: Any) -> dict[str, float]:
        return app_run_counters(run)

    def details(self, run: Any) -> dict[str, Any]:
        """Extra per-job timings taken by the job itself (SQL only)."""
        return {}

    def reference(self, inputs: Any) -> Any:
        raise NotImplementedError

    def matches(self, result: Any, reference: Any) -> bool:
        raise NotImplementedError


# -- logistic regression ------------------------------------------------------

# repro.bench.harness.lr_config at heap_mb=2 (LR_EXECUTORS, page and
# fraction settings of the Fig. 9 family).
_LR_SETTINGS = dict(heap_bytes=2 * MB, num_executors=2,
                    tasks_per_executor=2, page_bytes=256 * KB,
                    young_fraction=0.25, storage_fraction=0.9,
                    shuffle_fraction=0.1)
_LR_PARTITIONS = 8
_LR_DIMENSIONS = 10
# harness.lr_records_for(label, heap_mb=2): the object-form cache at 0.90
# ("80GB") and 2.30 ("200GB") of the old generation.
_LR_RECORDS = {"80GB": 18_626, "200GB": 47_599}


class LogisticRegression(Workload):
    def __init__(self, name: str, label: str, mode: str, iterations: int,
                 mode_sensitivity: float, **overrides: Any) -> None:
        self.name = name
        self.label = label
        self.iterations = iterations
        self.mode_sensitivity = mode_sensitivity
        self.settings = {**_LR_SETTINGS, "mode": mode, **overrides}

    def generate(self, seed: int, scale: float) -> Any:
        count = _scaled(_LR_RECORDS[self.label], scale, 200)
        return labeled_points(count, _LR_DIMENSIONS, seed=seed)

    def sizes(self, inputs: Any) -> dict[str, int]:
        return {"points": len(inputs), "dimensions": _LR_DIMENSIONS,
                "partitions": _LR_PARTITIONS, "iterations": self.iterations}

    def job(self, state: Any, config: DecaConfig) -> Any:
        return run_logistic_regression(state, config,
                                       iterations=self.iterations,
                                       num_partitions=_LR_PARTITIONS)

    def reference(self, inputs: Any) -> Any:
        return references.logistic_regression(inputs, self.iterations)

    def matches(self, result: Any, reference: Any) -> bool:
        return references.same_vector(result, reference)


# -- wordcount ----------------------------------------------------------------

class WordCount(Workload):
    name = "wc-shuffle"
    mode_sensitivity = 0.5
    # harness.run_wc_point: WC_HEAP_MB and the shuffle-heavy fractions.
    settings = dict(mode="deca", heap_bytes=3 * MB, num_executors=2,
                    tasks_per_executor=2, page_bytes=256 * KB,
                    storage_fraction=0.2, shuffle_fraction=0.8)
    # harness.WC_SIZES[("50GB", "100M")]
    words, keys, partitions = 30_000, 10_000, 4

    def generate(self, seed: int, scale: float) -> Any:
        return random_words(_scaled(self.words, scale, 400),
                            _scaled(self.keys, scale, 100), seed=seed)

    def sizes(self, inputs: Any) -> dict[str, int]:
        return {"words": len(inputs), "keys": len(set(inputs)),
                "partitions": self.partitions}

    def job(self, state: Any, config: DecaConfig) -> Any:
        return run_wordcount(state, config, num_partitions=self.partitions)

    def reference(self, inputs: Any) -> Any:
        return references.wordcount(inputs)

    def matches(self, result: Any, reference: Any) -> bool:
        return result == reference


# -- pagerank on the mp backend -----------------------------------------------

class PageRankMp(Workload):
    name = "pr-mp"
    # Fork, wait and IPC bound: the slow mode does not show (fit -0.2).
    mode_sensitivity = 0.0
    # harness.graph_config, on the real multiprocess backend.
    settings = dict(mode="deca", heap_bytes=int(2.5 * MB), num_executors=2,
                    tasks_per_executor=2, page_bytes=128 * KB,
                    storage_fraction=0.4, shuffle_fraction=0.6,
                    execution_backend="mp", mp_workers=2)
    # harness.GRAPH_SCALES["Pokec"]
    vertices, edges, partitions, iterations = 1_600, 15_000, 8, 5

    def generate(self, seed: int, scale: float) -> Any:
        vertices = _scaled(self.vertices, scale, 40)
        return power_law_graph(vertices,
                               _scaled(self.edges, scale, 4 * vertices),
                               seed=seed)

    def sizes(self, inputs: Any) -> dict[str, int]:
        return {"edges": len(inputs),
                "vertices": len({src for src, _ in inputs}),
                "partitions": self.partitions,
                "iterations": self.iterations}

    def job(self, state: Any, config: DecaConfig) -> Any:
        return run_pagerank(state, config, iterations=self.iterations,
                            num_partitions=self.partitions)

    def reference(self, inputs: Any) -> Any:
        return references.pagerank(inputs, self.iterations)

    def matches(self, result: Any, reference: Any) -> bool:
        return references.same_float_map(result, reference)


# -- the columnar SQL suite ---------------------------------------------------

SQL_PASSES = 20


@dataclasses.dataclass
class SqlRun:
    """What one SQL job leaves behind for checking and counting."""

    result: dict[str, list[tuple]]
    sim_wall_ms: float
    pass_ms: list[float]
    query_ms: dict[str, list[float]]
    gc_before: tuple[int, int, float]
    gc_after: tuple[int, int, float]
    events: int
    cached_bytes: int


class SqlSuite(Workload):
    name = "sql-suite"
    mode_sensitivity = 0.9
    settings: dict[str, Any] = {}
    rankings, uservisits = 10_000, 20_000

    def generate(self, seed: int, scale: float) -> Any:
        return (rankings_table(_scaled(self.rankings, scale, 100),
                               seed=seed),
                uservisits_table(_scaled(self.uservisits, scale, 200),
                                 seed=seed + 1))

    def sizes(self, inputs: Any) -> dict[str, int]:
        return {"rankings": len(inputs[0]), "uservisits": len(inputs[1]),
                "passes": SQL_PASSES, "queries": len(suite_queries())}

    def open(self, inputs: Any, config: DecaConfig) -> Any:
        # layout="auto" asks plan_sql_layout, which must pick columnar
        # for both fixed-schema relations.
        engine = make_suite_engine(inputs[0], inputs[1], config,
                                   layout="auto")
        layouts = {name: engine.layout_of(name)
                   for name in ("rankings", "uservisits")}
        if set(layouts.values()) != {"columnar"}:
            engine.close()
            raise RuntimeError(f"sql-suite expects columnar tables, "
                               f"got {layouts}")
        return engine

    def close(self, state: Any) -> None:
        state.close()

    def job(self, state: Any, config: DecaConfig) -> Any:
        engine = state
        queries = suite_queries()
        clock = time.perf_counter
        stats = engine.heap.stats
        gc_before = (stats.minor_count, stats.full_count, stats.pause_ms)
        events_before = len(engine.tracer.events)
        query_ms: dict[str, list[float]] = {name: [] for name, _ in queries}
        pass_ms: list[float] = []
        sim_wall_ms = 0.0
        result: dict[str, list[tuple]] = {}
        for _ in range(SQL_PASSES):
            pass_start = clock()
            for name, query in queries:
                start = clock()
                outcome = engine.run(query)
                query_ms[name].append((clock() - start) * 1000.0)
                sim_wall_ms += outcome.wall_ms
                result[name] = outcome.rows
            pass_ms.append((clock() - pass_start) * 1000.0)
        return SqlRun(result=result, sim_wall_ms=sim_wall_ms,
                      pass_ms=pass_ms, query_ms=query_ms,
                      gc_before=gc_before,
                      gc_after=(stats.minor_count, stats.full_count,
                                stats.pause_ms),
                      events=len(engine.tracer.events) - events_before,
                      cached_bytes=engine.cached_bytes)

    def counters(self, run: Any) -> dict[str, float]:
        zeros = dict.fromkeys((
            "spark.scheduler.jobs", "spark.scheduler.stages",
            "spark.shuffle.spilled_bytes", "spark.cache.swap_outs",
            "spark.cache.swap_ins", "memory.tier.bytes_moved_out",
            "memory.tier.bytes_moved_in", "memory.tier.swap_copy_bytes",
            "exec.mp.stages", "exec.mp.tasks", "exec.shm.segments_created",
            "exec.shm.bytes_shared", "exec.shm.bytes_pickled_records",
            "exec.shm.bytes_pickled_results"), 0)
        return {
            **zeros,
            "simtime.wall_ms": run.sim_wall_ms,
            "jvm.heap.minor_gcs": run.gc_after[0] - run.gc_before[0],
            "jvm.heap.full_gcs": run.gc_after[1] - run.gc_before[1],
            "jvm.heap.sim_gc_ms": run.gc_after[2] - run.gc_before[2],
            "obs.tracer.events": run.events,
            "sql.columnar.cached_bytes": run.cached_bytes,
        }

    def details(self, run: Any) -> dict[str, Any]:
        return {"pass_ms": run.pass_ms, "query_ms": run.query_ms}

    def reference(self, inputs: Any) -> Any:
        return references.sql_suite(inputs[0], inputs[1])

    def matches(self, result: Any, reference: Any) -> bool:
        return result.keys() == reference.keys() and all(
            references.same_rows(result[name], reference[name])
            for name in reference)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        LogisticRegression("lr-cache-scan", "80GB", "deca", iterations=8,
                           mode_sensitivity=0.75),
        LogisticRegression("lr-object-cache", "80GB", "spark",
                           iterations=2, mode_sensitivity=0.8),
        WordCount(),
        LogisticRegression("lr-swap-mmap", "200GB", "deca", iterations=4,
                           mode_sensitivity=0.85, cold_tier="mmap"),
        PageRankMp(),
        SqlSuite(),
    )
}
