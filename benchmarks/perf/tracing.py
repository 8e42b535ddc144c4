"""Real-clock spans around the layers' public entry points.

Everything here is installed *from the benchmark's own files*: the
wrappers replace attributes of ``repro`` modules and classes for the
duration of one traced job and are removed again afterwards, so nothing
under ``src/`` is edited and the end-to-end metrics (always measured
with the wrappers off) never pay for them.

A span is one row ``[name, start, end, busy, child, parent, job, calls,
items]`` on the ``time.perf_counter`` clock:

* *busy* is the time spent inside the wrapped call.  For the **exact**
  kind that is ``end - start``.  Per-record boundaries would produce
  hundreds of thousands of rows, so the **merged** kind folds every call
  of one function under one parent span into a single row (``calls``
  counts them), and the **stream** kind wraps an iterator-returning
  function and accumulates only the time spent inside ``next()`` —
  never the consumer's time between two items — into one row per
  iterator (``items`` counts what it yielded).
* *child* is the busy time of the spans that ran directly inside this
  one, added when each of them leaves, so a span's **self time** is
  ``busy - child`` and the self times of a job's spans sum to exactly
  the job span's busy time.
* *parent* is the index of the enclosing span (``-1`` for a root) and
  *job* the id of the job the span belongs to.

Forked mp workers inherit the wrappers; the ``worker`` kind (around
``repro.exec.worker.worker_main``) restarts the recorder in the child
and writes the child's rows to a file the parent collects, which is how
``exec.shm`` pack/attach time becomes visible although it is spent in
another process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

NAME, START, END, BUSY, CHILD, PARENT, JOB, CALLS, ITEMS = range(9)


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self, worker_dir: str | None = None) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.accumulated: set[int] = set()
        self.job = 0
        #: Where forked workers leave their rows (None: rows are dropped).
        self.worker_dir = worker_dir
        # (parent index, name) -> row index of the merged span.
        self._merged: dict[tuple[int, str], int] = {}

    def _open(self, name: str, now: float) -> int:
        stack = self.stack
        self.spans.append([name, now, now, 0.0, 0.0,
                           stack[-1] if stack else -1, self.job, 0, 0])
        return len(self.spans) - 1

    def bump(self, counts: dict[str, int] | None) -> None:
        if counts:
            for key, amount in counts.items():
                self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def root(self, name: str, job: int) -> Iterator[int]:
        """Open the root span of *job*; spans opened inside nest under it."""
        self.job = job
        self._merged.clear()
        spans, stack = self.spans, self.stack
        index = self._open(name, time.perf_counter())
        row = spans[index]
        row[CALLS] = 1
        stack.append(index)
        try:
            yield index
        finally:
            end = time.perf_counter()
            stack.pop()
            row[END] = end
            row[BUSY] = end - row[START]
            if stack:
                spans[stack[-1]][CHILD] += row[BUSY]

    # -- forked workers ------------------------------------------------------
    def restart_in_worker(self) -> int:
        """Forget the inherited rows; returns the span the fork ran under."""
        fork_parent = self.stack[-1] if self.stack else -1
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.accumulated.clear()
        self._merged.clear()
        return fork_parent

    def dump_worker(self, fork_parent: int) -> None:
        if self.worker_dir is None:
            return
        path = os.path.join(
            self.worker_dir,
            f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "fork_parent": fork_parent,
                       "spans": self.spans,
                       "accumulated": sorted(self.accumulated),
                       "counters": self.counters}, handle)

    def collect_workers(self) -> list[dict[str, Any]]:
        """Read (and remove) every worker dump, oldest first."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return []
        dumps = []
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path, encoding="utf-8") as handle:
                dumps.append(json.load(handle))
            os.unlink(path)
        dumps.sort(key=lambda dump: dump["spans"][0][START]
                   if dump["spans"] else 0.0)
        return dumps


# -- wrapper factories --------------------------------------------------------

CountHook = Callable[..., "dict[str, int] | None"]


def _spanned(rec: Recorder, name: str, fn: Callable,
             count: CountHook | None, merge: bool = False) -> Callable:
    """One row per call, or with *merge* one row per (parent span, name)
    that every call under that parent accumulates into."""
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter
    merged = rec._merged

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            rec.bump(count(*args, **kwargs))
        index = None
        if merge:
            key = (stack[-1] if stack else -1, name)
            index = merged.get(key)
        if index is None:
            index = rec._open(name, clock())
            if merge:
                merged[key] = index
                rec.accumulated.add(index)
        row = spans[index]
        row[CALLS] += 1
        stack.append(index)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            row[END] = end
            row[BUSY] += end - start
            if stack:
                spans[stack[-1]][CHILD] += end - start

    return wrapper


def _stream(rec: Recorder, name: str, fn: Callable,
            count: CountHook | None) -> Callable:
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter

    def drive(source: Any) -> Iterator[Any]:
        iterator = iter(source)
        row = None
        index = -1
        try:
            while True:
                if row is None:
                    index = rec._open(name, clock())
                    rec.accumulated.add(index)
                    row = spans[index]
                    row[CALLS] = 1
                stack.append(index)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    row[END] = end
                    row[BUSY] += end - start
                    if stack:
                        spans[stack[-1]][CHILD] += end - start
                row[ITEMS] += 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            rec.bump(count(*args, **kwargs))
        return drive(fn(*args, **kwargs))

    return wrapper


def _outermost(rec: Recorder, name: str, fn: Callable,
               count: CountHook | None, depth: list[int]) -> Callable:
    """Merged span for the outermost call of a recursive family only."""
    spanned = _spanned(rec, name, fn, count, merge=True)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        try:
            return spanned(*args, **kwargs)
        finally:
            depth[0] = 0

    return wrapper


def _worker(rec: Recorder, name: str, fn: Callable,
            count: CountHook | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        fork_parent = rec.restart_in_worker()
        try:
            with rec.root(name, rec.job):
                return fn(*args, **kwargs)
        finally:
            rec.dump_worker(fork_parent)

    return wrapper


# -- targets ------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    *attr* is ``"function"`` or ``"Class.method"`` inside *module*; the
    span is named ``"<layer>.<function>"``.  *family* groups recursive
    functions that share one outermost-depth guard.
    """

    module: str
    attr: str
    layer: str
    kind: str
    count: CountHook | None = None
    family: str = ""

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1]}"


def _count_cache_read(store: Any, key: Any) -> dict[str, int]:
    block = store.blocks.get(key)
    resident = block is not None and not block.on_disk
    return {"spark.cache.reads_resident" if resident
            else "spark.cache.reads_cold": 1}


def _count_flush(writer: Any, store: Any) -> dict[str, int]:
    return {"spark.shuffle.records_written": writer.records_written}


TARGETS: tuple[Target, ...] = (
    Target("repro.spark.scheduler", "DAGScheduler.run_job",
           "spark.scheduler", "exact"),
    Target("repro.spark.rdd", "RDD.iterator", "spark.rdd", "stream"),
    Target("repro.exec.mp", "MpBackend.run_map_stage", "exec.mp", "exact"),
    Target("repro.exec.mp", "MpBackend.run_result_stage", "exec.mp",
           "exact"),
    Target("repro.exec.worker", "worker_main", "exec.mp", "worker"),
    Target("repro.exec.shm", "pack_records_segment", "exec.shm", "exact"),
    Target("repro.exec.shm", "attach_page_group", "exec.shm", "exact"),
    Target("repro.spark.shuffle", "MapSideWriter.write_all",
           "spark.shuffle", "exact"),
    Target("repro.spark.shuffle", "MapSideWriter.flush", "spark.shuffle",
           "exact", count=_count_flush),
    Target("repro.spark.shuffle", "MapSideWriter.spill", "spark.shuffle",
           "exact"),
    Target("repro.spark.shuffle", "read_reduce_partition",
           "spark.shuffle", "stream"),
    Target("repro.spark.cache", "CacheStore.put", "spark.cache", "exact"),
    Target("repro.spark.cache", "CacheStore.get", "spark.cache", "merged"),
    Target("repro.spark.cache", "CacheStore.read_records", "spark.cache",
           "stream", count=_count_cache_read),
    Target("repro.spark.cache", "CacheStore.swap_out", "spark.cache",
           "exact"),
    Target("repro.spark.cache", "CacheStore.swap_in", "spark.cache",
           "exact"),
    Target("repro.memory.tier", "PageStoreTier.swap_out", "memory.tier",
           "exact"),
    Target("repro.memory.tier", "PageStoreTier.swap_in", "memory.tier",
           "exact"),
    Target("repro.memory.page", "PageGroup.append_record", "memory.page",
           "merged"),
    Target("repro.memory.page", "PageGroup.records", "memory.page",
           "stream"),
    Target("repro.memory.page", "PageGroup.scan", "memory.page", "stream"),
    Target("repro.jvm.heap", "SimHeap.allocate", "jvm.heap", "merged"),
    Target("repro.jvm.heap", "SimHeap.minor_gc", "jvm.heap", "merged"),
    Target("repro.jvm.heap", "SimHeap.full_gc", "jvm.heap", "merged"),
    Target("repro.spark.measure", "measure_typed", "spark.measure",
           "outermost", family="measure"),
    Target("repro.spark.measure", "measure_generic", "spark.measure",
           "outermost", family="measure"),
    Target("repro.memory.unified", "StaticMemoryArena.shuffle_acquire",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "StaticMemoryArena.shuffle_release",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "UnifiedMemoryManager.execution_acquire",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "UnifiedMemoryManager.execution_release",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "UnifiedMemoryManager.storage_acquire",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "UnifiedMemoryManager.storage_grow",
           "memory.unified", "merged"),
    Target("repro.memory.unified", "UnifiedMemoryManager.storage_discard",
           "memory.unified", "merged"),
    Target("repro.core.optimizer", "DecaOptimizer.plan_cache",
           "core.optimizer", "merged"),
    Target("repro.core.optimizer", "DecaOptimizer.plan_shuffle",
           "core.optimizer", "merged"),
    Target("repro.core.optimizer", "plan_sql_layout", "core.optimizer",
           "exact"),
    Target("repro.sql.engine", "SqlEngine.run", "sql.engine", "exact"),
    Target("repro.sql.engine", "SqlEngine.cache_table", "sql.engine",
           "exact"),
    Target("repro.sql.columnar", "ColumnarTable.typed_view",
           "sql.columnar", "merged"),
    Target("repro.sql.columnar", "ColumnarTable.string_view",
           "sql.columnar", "merged"),
    Target("repro.obs.tracer", "Tracer.emit", "obs.tracer", "merged"),
)

_FACTORIES: dict[str, Callable[..., Callable]] = {
    "exact": _spanned, "merged": functools.partial(_spanned, merge=True),
    "stream": _stream, "worker": _worker,
}


class Installation:
    """The set of attributes currently replaced by wrappers."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        # (namespace object, attribute name, original value)
        self._patched: list[tuple[Any, str, Any]] = []
        #: Targets whose module or attribute no longer exists.
        self.missing: list[str] = []

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        depths: dict[str, list[int]] = {}
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner: Any = module
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            if target.kind == "outermost":
                depth = depths.setdefault(target.family, [0])
                wrapper = _outermost(self.recorder, target.span, original,
                                     target.count, depth)
            else:
                wrapper = _FACTORIES[target.kind](
                    self.recorder, target.span, original, target.count)
            if owner is module:
                # ``from .x import f`` copies the reference into the
                # importing module, so replace it wherever it landed.
                for namespace in _repro_modules():
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._replace(namespace, key, original, wrapper)
            else:
                self._replace(owner, leaf, original, wrapper)

    def _replace(self, namespace: Any, key: str, original: Any,
                 wrapper: Any) -> None:
        setattr(namespace, key, wrapper)
        self._patched.append((namespace, key, original))

    def uninstall(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)

    def __enter__(self) -> Installation:
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


# -- reading the rows ---------------------------------------------------------

def totals_by_name(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Sum self time, busy time, calls and items per span name."""
    out: dict[str, dict[str, float]] = {}
    for row in spans:
        entry = out.setdefault(row[NAME], {"self_s": 0.0, "busy_s": 0.0,
                                           "calls": 0, "items": 0})
        entry["self_s"] += row[BUSY] - row[CHILD]
        entry["busy_s"] += row[BUSY]
        entry["calls"] += row[CALLS]
        entry["items"] += row[ITEMS]
    return out


def merge_totals(*totals: dict[str, dict[str, float]]
                 ) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for total in totals:
        for name, entry in total.items():
            into = out.setdefault(name, {"self_s": 0.0, "busy_s": 0.0,
                                         "calls": 0, "items": 0})
            for key, value in entry.items():
                into[key] += value
    return out


def chrome_trace(recorder: Recorder, workers: list[dict[str, Any]],
                 metadata: dict[str, Any]) -> dict[str, Any]:
    """The recorder's rows (and its workers') as Chrome ``trace_event``.

    One ``X`` event per row, timestamps in microseconds from the first
    row.  Exact spans sit on thread 0 of their process and nest like
    the calls did; accumulated rows (merged / stream) sit on thread 1,
    placed at their first entry with ``dur`` = accumulated busy time —
    ``args`` carries the true first/last timestamps, the call and item
    counts, the self time, the parent row and the job id.
    """
    processes = [{"pid": os.getpid(), "label": "driver",
                  "spans": recorder.spans,
                  "accumulated": recorder.accumulated, "fork_parent": -1}]
    for dump in workers:
        processes.append({"pid": dump["pid"], "label": "mp-worker",
                          "spans": dump["spans"],
                          "accumulated": set(dump["accumulated"]),
                          "fork_parent": dump["fork_parent"]})
    starts = [row[START] for proc in processes for row in proc["spans"]]
    origin = min(starts) if starts else 0.0
    events: list[dict[str, Any]] = []
    for proc in processes:
        events.append({"name": "process_name", "ph": "M", "pid": proc["pid"],
                       "tid": 0, "args": {"name": proc["label"]}})
        for tid, label in ((0, "calls"), (1, "accumulated")):
            events.append({"name": "thread_name", "ph": "M",
                           "pid": proc["pid"], "tid": tid,
                           "args": {"name": label}})
        for index, row in enumerate(proc["spans"]):
            args = {"span": index, "parent": row[PARENT], "job": row[JOB],
                    "self_us": round((row[BUSY] - row[CHILD]) * 1e6, 3),
                    "calls": row[CALLS]}
            if row[ITEMS]:
                args["items"] = row[ITEMS]
            accumulated = index in proc["accumulated"]
            if accumulated:
                args["last_end_us"] = round((row[END] - origin) * 1e6, 3)
            if row[PARENT] < 0 and proc["fork_parent"] >= 0:
                args["driver_parent"] = proc["fork_parent"]
            events.append({
                "name": row[NAME], "cat": row[NAME].rsplit(".", 1)[0],
                "ph": "X", "pid": proc["pid"],
                "tid": 1 if accumulated else 0,
                "ts": round((row[START] - origin) * 1e6, 3),
                "dur": round(row[BUSY] * 1e6, 3), "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": metadata}
