"""RDDs: lazy, partitioned, lineage-tracked datasets.

The user-facing API mirrors Spark's: transformations build a lineage graph
(``map``, ``filter``, ``flatMap``, ``reduceByKey``, ``groupByKey``,
``sortByKey``, ``join``, ...), actions (``collect``, ``reduce``, ``count``)
submit jobs through the context's DAG scheduler, and ``cache()`` /
``unpersist()`` pin partitions in the block cache — the lifetime events
Deca keys on (§4.2).

A dataset may declare its UDT via :class:`UdtInfo`; that is what the Deca
optimizer classifies (Algorithms 1–4) and decomposes.  Without a UDT the
engine falls back to generic object accounting and Deca leaves the data in
object form, exactly as the real system leaves un-analyzable types intact.
"""

from __future__ import annotations

import functools
from itertools import islice
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from ..analysis.callgraph import CallGraph
from ..analysis.global_refine import GlobalClassifier
from ..analysis.ir import Method
from ..analysis.local import classify_locally
from ..analysis.size_type import SizeType
from ..analysis.udt import DataType
from ..core.plan import StorageStrategy
from ..errors import ExecutionError
from .measure import RecordFootprint, measure_generic, measure_typed
from .shuffle import ShuffleKind

if TYPE_CHECKING:
    from ..simtime import Prices
    from .context import DecaContext
    from .scheduler import TaskContext

#: ``reduce``'s column fold: ``fold(acc, columns) -> acc`` (see there).
ColumnFold = Callable[[Any, list[tuple]], Any]

#: The most records a column fold sees at once.  Bounded runs keep the
#: decoded columns small whatever the page size.
COLUMN_RUN = 256


def leaf_columns(values: list) -> list[tuple]:
    """Same-shaped record values as columns, one per scalar leaf in the
    order the leaves appear in a value: ``(label, (f0, f1))`` records
    give the labels, then the ``f0`` and the ``f1`` column."""
    columns: list[tuple] = []
    for field in zip(*values):
        if type(field[0]) is tuple:
            columns.extend(leaf_columns(field))
        else:
            columns.append(field)
    return columns


@dataclass
class UdtInfo:
    """Everything the Deca optimizer needs to know about a dataset's UDT.

    *entry_method* is the stage-level IR whose call graph the global
    classification analyzes; the dataset's records are *udt*'s values
    (:func:`repro.memory.layout.record_shape`), packed and measured as
    they are; *runtime_symbols* bind the symbolic constants of the
    analysis (e.g. the dimension read from a dataset header) to their
    runtime values, which is how the hybrid runtime optimizer of
    Appendix A resolves sizes at job-submission time.
    """

    udt: DataType
    entry_method: Method | None = None
    runtime_symbols: dict[str, int] = dc_field(default_factory=dict)
    # The *runtime object graph* of one record when it differs from the
    # logical UDT — e.g. Scala wraps aggregation records in Tuple2s with
    # boxed primitives; the footprint model should count those objects
    # even though the decomposed layout stores none of them.
    object_model: DataType | None = None
    # Caches of what the fields above determine: not init fields, so a
    # ``dataclasses.replace`` starts them empty instead of copying them.
    _cached_footprint: RecordFootprint | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    _callgraph: CallGraph | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    _classifier: GlobalClassifier | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    _static_fixed: bool | None = dc_field(
        default=None, init=False, repr=False, compare=False)

    def classifier(self) -> GlobalClassifier | None:
        """Algorithms 2–4 over :meth:`callgraph` (lazily built, once;
        None without a call graph)."""
        callgraph = self.callgraph()
        if callgraph is not None and self._classifier is None:
            self._classifier = GlobalClassifier(callgraph)
        return self._classifier

    @property
    def static_fixed(self) -> bool:
        """Does the UDT refine to an SFST (Algorithm 1 alone without a
        call graph)?  Then every record has the same footprint: the proof
        the optimizer decomposes by is the one that lets :meth:`measure`
        measure once."""
        if self._static_fixed is None:
            classifier = self.classifier()
            size_type = (classify_locally(self.udt) if classifier is None
                         else classifier.classify(self.udt))
            self._static_fixed = size_type is SizeType.STATIC_FIXED
        return self._static_fixed

    def measure(self, record: Any) -> RecordFootprint:
        """Footprint of one record (measured once for an SFST)."""
        footprint = self._cached_footprint
        if footprint is None:
            footprint = measure_typed(self.object_model or self.udt, record)
            # Per record, a plain attribute: the property decides once.
            if self._static_fixed is not False and self.static_fixed:
                self._cached_footprint = footprint
        return footprint

    def callgraph(self) -> CallGraph | None:
        """The (lazily built) per-stage call graph for the analysis."""
        if self.entry_method is None:
            return None
        if self._callgraph is None:
            self._callgraph = CallGraph.build(
                self.entry_method, known_types=(self.udt,))
        return self._callgraph


class Dependency:
    """An edge in the lineage graph."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """Parent partition i feeds child partition i (pipelined)."""


class ShuffleDependency(Dependency):
    """A stage boundary: the parent's output is repartitioned by key."""

    def __init__(self, parent: "RDD", num_reduce: int, kind: ShuffleKind,
                 merge_value: Callable[[Any, Any], Any] | None = None,
                 tag: int | None = None,
                 partitioner: Callable[[Any], int] | None = None) -> None:
        super().__init__(parent)
        # Ids are per-context (not process-global) so two same-seed runs
        # emit identical ids — and byte-identical traces — even when they
        # share one interpreter.
        self.shuffle_id = next(parent.ctx._shuffle_ids)
        self.num_reduce = num_reduce
        self.kind = kind
        self.merge_value = merge_value
        # For cogroups: which side of the join this dependency feeds.
        self.tag = tag
        # A dependency-specific partitioner (e.g. sortByKey's range
        # partitioner); None means the context's hash partitioner.
        self.partitioner = partitioner


class RDD:
    """Base class: a lazy, partitioned dataset."""

    def __init__(self, ctx: "DecaContext", deps: list[Dependency],
                 num_partitions: int, name: str,
                 udt_info: UdtInfo | None = None) -> None:
        if num_partitions < 1:
            raise ExecutionError(
                f"RDD {name!r} needs at least one partition")
        self.ctx = ctx
        self.rdd_id = next(ctx._rdd_ids)
        self.deps = deps
        self.num_partitions = num_partitions
        self.name = name
        self.udt_info = udt_info
        self.is_cached = False
        # How the records are laid out over the partitions, when known:
        # ``(num_partitions, partitioner)`` of the shuffle or join that
        # produced them (partitioner None = the context's hash
        # partitioner).  Transformations that cannot change a record's
        # key carry it along; ``join`` reads it to skip the shuffle of a
        # side that is already partitioned its way.
        self.partitioning: (
            tuple[int, Callable[[Any], int] | None] | None) = None
        ctx._register_rdd(self)

    # -- to be provided by subclasses ---------------------------------------
    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        raise NotImplementedError

    # -- record accounting ------------------------------------------------------
    def measure_record(self, record: Any) -> RecordFootprint:
        if self.udt_info is not None:
            return self.udt_info.measure(record)
        return measure_generic(record)

    # -- iteration (cache-aware) ---------------------------------------------------
    def iterator(self, split: int, task: "TaskContext") -> Iterator[Any]:
        """Compute or fetch partition *split*, honouring ``cache()``."""
        if not self.is_cached:
            return self.compute(split, task)
        return self.ctx._cached_iterator(self, split, task)

    # -- metadata -----------------------------------------------------------------
    def with_udt(self, udt_info: UdtInfo) -> "RDD":
        """Attach UDT information (returns self for chaining)."""
        self.udt_info = udt_info
        return self

    def cache(self) -> "RDD":
        """Pin this dataset's partitions in memory once computed."""
        self.is_cached = True
        return self

    def unpersist(self) -> "RDD":
        """Release every cached block of this dataset (lifetime end)."""
        self.is_cached = False
        self.ctx._unpersist(self)
        return self

    # -- transformations (narrow) ------------------------------------------------
    def map(self, f: Callable[[Any], Any], name: str | None = None,
            udt_info: UdtInfo | None = None,
            record_cost_ms: float | None = None) -> "RDD":
        """Apply *f* per record.  *record_cost_ms* overrides the default
        per-record UDF cost (e.g. a gradient step charges per-dimension
        arithmetic rather than the flat default)."""
        out = MapPartitionsRDD(
            self, lambda it, task: map(f, it),
            name or f"{self.name}.map", per_record=True, udt_info=udt_info,
            record_cost_ms=record_cost_ms)
        out._record_fn = f
        out._record_kind = "map"
        return out

    def flat_map(self, f: Callable[[Any], Iterable[Any]],
                 name: str | None = None,
                 udt_info: UdtInfo | None = None,
                 record_cost_ms: float | None = None) -> "RDD":
        def run(it, task):
            for record in it:
                yield from f(record)
        out = MapPartitionsRDD(self, run, name or f"{self.name}.flatMap",
                               per_record=True, udt_info=udt_info,
                               record_cost_ms=record_cost_ms)
        out._record_fn = f
        out._record_kind = "flatmap"
        return out

    def filter(self, predicate: Callable[[Any], bool],
               name: str | None = None) -> "RDD":
        out = MapPartitionsRDD(
            self, lambda it, task: filter(predicate, it),
            name or f"{self.name}.filter", per_record=True,
            udt_info=self.udt_info)
        out._record_fn = predicate
        out._record_kind = "filter"
        out.partitioning = self.partitioning
        return out

    def map_partitions(self, f: Callable[[Iterator[Any]], Iterable[Any]],
                       name: str | None = None,
                       udt_info: UdtInfo | None = None) -> "RDD":
        out = MapPartitionsRDD(
            self, lambda it, task: f(it),
            name or f"{self.name}.mapPartitions", per_record=False,
            udt_info=udt_info)
        # Registered for the closure analyzer.
        out._record_fn = f
        out._record_kind = "mappartitions"
        return out

    def map_values(self, f: Callable[[Any], Any],
                   name: str | None = None) -> "RDD":
        """Apply *f* to each value; keys, and so the partitioning, stay."""
        out = self.map(lambda kv: (kv[0], f(kv[1])),
                       name or f"{self.name}.mapValues")
        out.partitioning = self.partitioning
        return out

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda v: (f(v), v), f"{self.name}.keyBy")

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self, other)

    def keys(self) -> "RDD":
        """The first element of each key-value pair."""
        return self.map(lambda kv: kv[0], f"{self.name}.keys")

    def values(self) -> "RDD":
        """The second element of each key-value pair."""
        return self.map(lambda kv: kv[1], f"{self.name}.values")

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """A per-record Bernoulli sample (deterministic per seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ExecutionError(
                f"sample fraction must be in [0, 1]: {fraction}")

        def keep(record) -> bool:
            import zlib
            digest = zlib.crc32(repr((seed, record)).encode("utf-8"))
            return (digest % 10_000) < fraction * 10_000

        return self.filter(keep, f"{self.name}.sample")

    def zip_with_index(self) -> "RDD":
        """Pair each record with its global position (one extra job to
        count the partition sizes, as in Spark)."""
        sizes = self.ctx.run_job(
            self, lambda it: sum(1 for _ in it),
            name=f"{self.name}.zipWithIndex.count")
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def run(split_records, task):
            return split_records

        out = MapPartitionsRDD(self, run, f"{self.name}.zipWithIndex",
                               per_record=False)

        def compute(split, task, _parent=self, _offsets=offsets):
            start = _offsets[split]
            for position, record in enumerate(
                    _parent.iterator(split, task)):
                yield record, start + position
        out.compute = compute  # type: ignore[method-assign]
        return out

    # -- key-based transformations (shuffles, §4.1) ---------------------------------
    def reduce_by_key(self, merge: Callable[[Any, Any], Any],
                      num_partitions: int | None = None,
                      name: str | None = None) -> "RDD":
        """GroupBy-Aggregation with eager map-side combining."""
        return ShuffledRDD(
            self, num_partitions or self.num_partitions,
            ShuffleKind.COMBINE, merge_value=merge,
            name=name or f"{self.name}.reduceByKey")

    def group_by_key(self, num_partitions: int | None = None,
                     name: str | None = None) -> "RDD":
        """GroupBy: build the complete value list per key (no combining)."""
        return ShuffledRDD(
            self, num_partitions or self.num_partitions,
            ShuffleKind.GROUP, name=name or f"{self.name}.groupByKey")

    def sort_by_key(self, num_partitions: int | None = None,
                    name: str | None = None,
                    sample_size: int = 128) -> "RDD":
        """Globally sort by key (a range partitioner plus local sorts).

        Like Spark's ``RangePartitioner``, a sampling job over the parent
        computes the partition boundaries up front; concatenating the
        output partitions in order then yields a total order.
        """
        num_reduce = num_partitions or self.num_partitions
        partitioner = _range_partitioner(self, num_reduce, sample_size)
        return ShuffledRDD(
            self, num_reduce, ShuffleKind.SORT,
            name=name or f"{self.name}.sortByKey",
            partitioner=partitioner)

    def join(self, other: "RDD", num_partitions: int | None = None,
             name: str | None = None) -> "RDD":
        """Inner join on keys (cogroup then cartesian per key).

        A side already partitioned like the join — same partition count,
        hash partitioner — is read in place through a narrow dependency;
        only the other sides are shuffled.
        """
        return JoinedRDD(self, other,
                         num_partitions or self.num_partitions,
                         name=name or f"{self.name}.join")

    def aggregate_by_key(self, zero: Any,
                         seq: Callable[[Any, Any], Any],
                         comb: Callable[[Any, Any], Any],
                         num_partitions: int | None = None) -> "RDD":
        """Aggregate values per key (implemented over reduceByKey, like
        the paper treats it as an extension of the basic operator)."""
        seeded = self.map_values(lambda v: seq(zero, v))
        return seeded.reduce_by_key(comb, num_partitions,
                                    name=f"{self.name}.aggregateByKey")

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        paired = self.map(lambda v: (v, None))
        reduced = paired.reduce_by_key(lambda a, b: a, num_partitions)
        return reduced.map(lambda kv: kv[0], f"{self.name}.distinct")

    # -- actions ----------------------------------------------------------------------
    def collect(self) -> list:
        results = self.ctx.run_job(self, lambda it: list(it),
                                   name=f"{self.name}.collect")
        return [record for part in results for record in part]

    def count(self) -> int:
        results = self.ctx.run_job(self, lambda it: sum(1 for _ in it),
                                   name=f"{self.name}.count")
        return sum(results)

    def reduce(self, f: Callable[[Any, Any], Any],
               column_fold: ColumnFold | None = None) -> Any:
        """Fold the records with *f*: each partition in record order,
        then the partitions' results in partition order.

        *column_fold* is the same per-partition fold of a ``map`` over
        decomposed columns: ``column_fold(acc, columns)`` returns *acc*
        (None before a partition's first run) with the run's mapped
        records folded on by *f*, bit for bit.  ``columns`` hold at most
        ``COLUMN_RUN`` of the map's input records, one tuple per leaf of
        the record value in order.  The sim engine calls it where
        :meth:`MapPartitionsRDD.column_runs` applies (a Deca ``map`` over
        a cache planned as fixed-size pages, no fault armed) and runs the
        map and *f* everywhere else, so both stay the definition that
        every mode, backend and analysis reads.
        """
        def reduce_partition(it):
            first = next(it, _SENTINEL)
            if first is _SENTINEL:
                return first
            return functools.reduce(f, it, first)

        func: Callable[[Iterator[Any]], Any] = reduce_partition
        if column_fold is not None and isinstance(self, MapPartitionsRDD):
            func = _ColumnReduce(reduce_partition, column_fold)
        parts = self.ctx.run_job(self, func, name=f"{self.name}.reduce")
        values = [p for p in parts if p is not _SENTINEL]
        if not values:
            raise ExecutionError(f"reduce of empty RDD {self.name!r}")
        return functools.reduce(f, values)

    def take(self, n: int) -> list:
        collected = self.collect()
        return collected[:n]

    def first(self) -> Any:
        taken = self.take(1)
        if not taken:
            raise ExecutionError(f"first() on empty RDD {self.name!r}")
        return taken[0]

    def count_by_key(self) -> dict:
        """Count occurrences per key (a reduceByKey plus collect)."""
        counted = self.map(lambda kv: (kv[0], 1),
                           f"{self.name}.countByKey")             .reduce_by_key(lambda a, b: a + b)
        return dict(counted.collect())

    def sum(self) -> Any:
        parts = self.ctx.run_job(self, lambda it: sum(it),
                                 name=f"{self.name}.sum")
        return sum(parts)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def foreach(self, f: Callable[[Any], None]) -> None:
        def run(it):
            for record in it:
                f(record)
            return None
        self.ctx.run_job(self, run, name=f"{self.name}.foreach")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(id={self.rdd_id}, {self.name!r}, "
                f"partitions={self.num_partitions})")


class _Empty:
    """``reduce``'s result for an empty partition.  It pickles as the
    module's one instance, so an mp worker's empty partition still reads
    as empty on the driver."""

    def __reduce__(self) -> str:
        return "_SENTINEL"


_SENTINEL = _Empty()


class _ColumnReduce:
    """``reduce``'s partition function when the app gives a column fold.

    Called with a partition's records it is the record fold (the mp
    workers call it so); the sim scheduler calls :meth:`run_task`
    instead, which folds the map's cached input a column run at a time
    where :meth:`MapPartitionsRDD.column_runs` applies: whether the block
    is resident, swapped or built by this very task.
    """

    def __init__(self, reduce_partition: Callable[[Iterator[Any]], Any],
                 column_fold: ColumnFold) -> None:
        self.reduce_partition = reduce_partition
        self.column_fold = column_fold

    def __call__(self, records: Iterator[Any]) -> Any:
        return self.reduce_partition(records)

    def run_task(self, rdd: "MapPartitionsRDD", split: int,
                 task: "TaskContext") -> Any:
        runs = rdd.column_runs(split, task)
        if runs is None:
            return self.reduce_partition(rdd.iterator(split, task))
        fold, acc = self.column_fold, None
        for columns in runs:
            acc = fold(acc, columns)
        return _SENTINEL if acc is None else acc


class ParallelCollectionRDD(RDD):
    """Driver-side data split into partitions."""

    def __init__(self, ctx: "DecaContext", data: list, num_partitions: int,
                 name: str = "parallelize",
                 udt_info: UdtInfo | None = None,
                 read_cost_per_record_ms: float = 0.0) -> None:
        super().__init__(ctx, [], num_partitions, name, udt_info)
        self._slices = _slice(data, num_partitions)
        self._read_cost_ms = read_cost_per_record_ms

    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        executor = task.executor
        cost = executor.prices.per_slot(self._read_cost_ms)
        for record in self._slices[split]:
            if cost:
                executor.charge_compute(cost)
            yield record


class MapPartitionsRDD(RDD):
    """A narrow transformation over one parent."""

    def __init__(self, parent: RDD,
                 body: Callable[[Iterator[Any], "TaskContext"],
                                Iterable[Any]],
                 name: str, per_record: bool,
                 udt_info: UdtInfo | None = None,
                 record_cost_ms: float | None = None) -> None:
        super().__init__(parent.ctx, [NarrowDependency(parent)],
                         parent.num_partitions, name, udt_info)
        self._body = body
        self._per_record = per_record
        self._record_cost_ms = record_cost_ms
        self._transformed: bool | None = None
        # Set by map/filter/flat_map/map_partitions: the record UDF, read
        # by the optimizer and the closure lint.
        self._record_fn: Callable[[Any], Any] | None = None
        self._record_kind: str | None = None

    def _reads_decomposed_data(self) -> bool:
        """Whether Deca transformed this UDF's input access (Appendix B).

        When the nearest cached ancestor is stored as decomposed pages,
        Deca rewrites the stage's loop like Fig. 12: field reads go
        straight to the page bytes and intermediate results are written
        into buffers reused across records — no per-record object graphs,
        hence no young-generation churn.
        """
        if self._transformed is None:
            self._transformed = self.ctx._is_deca_transformed(self)
        return self._transformed

    def _record_ticks(self, prices: "Prices") -> int:
        """One UDF application's compute charge."""
        return (prices.record_op if self._record_cost_ms is None
                else prices.per_slot(self._record_cost_ms))

    def column_runs(self, split: int, task: "TaskContext"
                    ) -> Iterator[list[tuple]] | None:
        """This ``map``'s input where a column fold may stand in for the
        record chain: its cached parent's records, read as
        :meth:`compute` reads them, in runs of at most ``COLUMN_RUN``
        turned into columns (:func:`leaf_columns`).  Each run is charged,
        once the fold has taken it, what the transformed record path
        charges its records.  ``None`` — run the records through the map
        — unless the stage is Deca-transformed, this map is not cached,
        its parent's cache plan is Deca pages of fixed-size records, and
        no fault is armed (a kill strikes on the op its countdown names,
        so an armed attempt charges one record at a time).

        The rule reads the plan, not this executor's block: a resident
        block charges its read before its first record, a swapped one
        (either cold tier) its tier read and ``deca_read``, and an absent
        one is computed and cached whole first.  Past the first record nothing
        charges or allocates between records in any of the three.
        """
        parent = self.deps[0].parent
        if (self._record_kind != "map" or self.is_cached
                or not parent.is_cached or task.executor.fault_armed
                or not self._reads_decomposed_data()):
            return None
        plan = self.ctx.plan_cache(parent)
        if (plan.strategy is not StorageStrategy.DECA_PAGES
                or plan.schema is None or not plan.schema.fixed_size):
            return None
        return self._charged(parent.iterator(split, task), task)

    def _charged(self, records: Iterator[Any], task: "TaskContext"
                 ) -> Iterator[list[tuple]]:
        executor = task.executor
        prices = executor.prices
        cost = self._record_ticks(prices) + prices.page_access
        charge = executor.charge_compute
        metrics = task.metrics
        while run := list(islice(records, COLUMN_RUN)):
            yield leaf_columns(run)
            # Integer ticks: one charge of count * cost moves the clock,
            # the task's tally and the profiler's grid samples as count
            # charges of cost do, since nothing in between allocates.
            count = len(run)
            charge(cost * count)
            metrics.records_read += count

    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        parent = self.deps[0].parent
        source = parent.iterator(split, task)
        executor = task.executor
        prices = executor.prices
        if not self._per_record:
            yield from self._body(source, task)
            return
        cost = self._record_ticks(prices)
        # The per-record callables are picked once per partition.
        charge = executor.charge_compute
        metrics = task.metrics
        if self._reads_decomposed_data():
            # Transformed code path: reused result buffers, byte access.
            cost += prices.page_access
            for record in self._body(source, task):
                charge(cost)
                metrics.records_read += 1
                yield record
            return
        # ``measure_generic`` is looked up in the module globals when the
        # partition starts, so a wrapper installed over that global (the
        # real-clock tracer's) still sees every call.
        info = self.udt_info
        measure = info.measure if info is not None else measure_generic
        alloc_temp = executor.alloc_temp
        for record in self._body(source, task):
            # One UDF application: compute cost plus the temporaries the
            # UDF allocates (the young-generation churn of §2.2).
            charge(cost)
            objects, object_bytes, _ = measure(record)
            alloc_temp(objects, object_bytes)
            metrics.records_read += 1
            yield record


class UnionRDD(RDD):
    """Concatenation of two datasets (partitions appended)."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.ctx,
            [NarrowDependency(left), NarrowDependency(right)],
            left.num_partitions + right.num_partitions,
            f"{left.name}.union")
        self._left = left
        self._right = right

    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        if split < self._left.num_partitions:
            return self._left.iterator(split, task)
        return self._right.iterator(split - self._left.num_partitions, task)


def _range_partitioner(parent: "RDD", num_reduce: int,
                       sample_size: int) -> Callable[[Any], int]:
    """Sample the parent's keys and return a boundary-based partitioner."""
    import bisect

    per_partition = max(1, sample_size // max(1, parent.num_partitions))

    def sample_partition(records) -> list:
        keys = [key for key, _ in records]
        if len(keys) <= per_partition:
            return keys
        stride = len(keys) / per_partition
        return [keys[int(i * stride)] for i in range(per_partition)]

    sampled = sorted(
        key
        for part in parent.ctx.run_job(
            parent, sample_partition,
            name=f"{parent.name}.rangeSample")
        for key in part)
    # A tuple: the partitioner closure captures it, and captured mutable
    # containers are exactly what the closure analyzer warns about.
    boundaries: tuple = ()
    if sampled and num_reduce > 1:
        step = len(sampled) / num_reduce
        boundaries = tuple(sampled[int(i * step)]
                           for i in range(1, num_reduce))

    def partition(key) -> int:
        return bisect.bisect_right(boundaries, key)

    return partition


class ShuffledRDD(RDD):
    """The reduce side of a shuffle."""

    def __init__(self, parent: RDD, num_reduce: int, kind: ShuffleKind,
                 merge_value: Callable[[Any, Any], Any] | None = None,
                 name: str = "shuffled",
                 partitioner: Callable[[Any], int] | None = None) -> None:
        dep = ShuffleDependency(parent, num_reduce, kind, merge_value,
                                partitioner=partitioner)
        super().__init__(parent.ctx, [dep], num_reduce, name)
        self.shuffle_dep = dep
        self.kind = kind
        self.partitioning = (num_reduce, partitioner)

    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        executor = task.executor
        records = executor.read_shuffle(self.shuffle_dep.shuffle_id, split,
                                        task)
        prices = executor.prices
        plan = self.ctx.plan_shuffle(self.shuffle_dep)
        if self.kind is ShuffleKind.COMBINE:
            merged: dict[Any, Any] = {}
            merge = self.shuffle_dep.merge_value
            reuse = plan.decomposed and plan.value_segment_reuse
            for key, value in records:
                executor.charge_compute(prices.hash_probe)
                if key in merged:
                    merged[key] = merge(merged[key], value)
                    if reuse:
                        # SFST value: the merge result overwrites the old
                        # segment in place (§4.3.2) — no dead object.
                        executor.charge_compute(prices.page_access)
                    else:
                        executor.alloc_temp(1, 24)
                else:
                    merged[key] = value
            yield from merged.items()
        elif self.kind is ShuffleKind.GROUP:
            yield from _group_records(records, task,
                                      decomposed=plan.decomposed)
        elif self.kind is ShuffleKind.SORT:
            buffered = list(records)
            executor.charge_compute(prices.sort_per_record * len(buffered))
            yield from sorted(buffered, key=lambda kv: kv[0])
        else:
            raise ExecutionError(f"unsupported reduce kind {self.kind}")


def _group_records(records: Iterator[tuple[Any, Any]],
                   task: "TaskContext",
                   decomposed: bool = False) -> Iterator[tuple[Any, list]]:
    """Reduce-side grouping: the hash table of Fig. 6(b)/Fig. 7(b).

    The per-key value arrays are growable (a VST while being built, §3.4);
    they live in a pinned buffer until the task finishes.  When the
    incoming blocks are decomposed, the buffer holds pointers into the
    fetched pages instead of object graphs (Fig. 7(a)).
    """
    executor = task.executor
    probe = executor.prices.hash_probe
    buffer_group = executor.new_pinned_group("shuffle-read-buffer")
    groups: dict[Any, list] = {}
    count = 0
    # The buffer must be released even when the task dies mid-fill
    # (injected kill, executor loss, fetch failure): a failed attempt's
    # buffer is garbage, not a leaked live group.
    try:
        for key, value in records:
            executor.charge_compute(probe)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                executor.heap.allocate(buffer_group, 2, 48)
            bucket.append(value)
            if decomposed:
                executor.heap.allocate(buffer_group, 0, 8)  # one pointer
            else:
                footprint = measure_generic(value)
                executor.heap.allocate(buffer_group, footprint.objects,
                                       footprint.object_bytes)
            count += 1
        for key, values in groups.items():
            yield key, values
    finally:
        executor.free_pinned_group(buffer_group)


class JoinedRDD(RDD):
    """Inner join of two key-value datasets (a cogroup).

    A side that is already partitioned like the join — produced by a
    shuffle or join with the same partition count and the hash
    partitioner — is a :class:`NarrowDependency` and is read in place;
    any other side is repartitioned through a ``COGROUP`` shuffle.
    """

    def __init__(self, left: RDD, right: RDD, num_reduce: int,
                 name: str) -> None:
        partitioning = (num_reduce, None)
        deps = [NarrowDependency(side) if side.partitioning == partitioning
                else ShuffleDependency(side, num_reduce, ShuffleKind.COGROUP,
                                       tag=tag)
                for tag, side in enumerate((left, right))]
        super().__init__(left.ctx, deps, num_reduce, name)
        self.left_dep, self.right_dep = deps
        self.partitioning = partitioning

    def _table(self, dep: Dependency, split: int, task: "TaskContext",
               buffer_group: Any) -> dict[Any, list]:
        """Materialise one side as key -> values in the pinned buffer."""
        executor = task.executor
        probe = executor.prices.hash_probe
        if isinstance(dep, ShuffleDependency):
            fetched = executor.read_shuffle(dep.shuffle_id, split, task)
            # Strip the cogroup side tag.
            records = ((key, tagged[1]) for key, tagged in fetched)
            decomposed = self.ctx.plan_shuffle(dep).decomposed
        else:
            records = dep.parent.iterator(split, task)
            decomposed = self.ctx._is_deca_transformed(dep.parent)
        table: dict[Any, list] = {}
        for key, value in records:
            executor.charge_compute(probe)
            table.setdefault(key, []).append(value)
            if decomposed:
                # Decomposed inputs enter the table as pointers into the
                # pages they sit in (Fig. 7(a)); object inputs as graphs.
                executor.heap.allocate(buffer_group, 0, 8)
                continue
            footprint = measure_generic(value)
            executor.heap.allocate(buffer_group, footprint.objects,
                                   footprint.object_bytes)
        return table

    def compute(self, split: int, task: "TaskContext") -> Iterator[Any]:
        executor = task.executor
        prices = executor.prices
        buffer_group = executor.new_pinned_group("join-buffer")
        # One try/finally spans fill and probe: a task that dies mid-fill
        # (fault injection, fetch failure) must still free the buffer.
        try:
            if isinstance(self.left_dep, NarrowDependency):
                # Fig. 7(b): the co-partitioned left side (the cached
                # adjacency lists) is probed where it sits — streamed
                # against the right side's table, never copied into the
                # buffer.
                right = self._table(self.right_dep, split, task,
                                    buffer_group)
                for key, lv in self.left_dep.parent.iterator(split, task):
                    executor.charge_compute(prices.hash_probe)
                    for rv in right.get(key, ()):
                        executor.charge_compute(prices.record_op)
                        yield key, (lv, rv)
                return
            left = self._table(self.left_dep, split, task, buffer_group)
            right = self._table(self.right_dep, split, task, buffer_group)
            for key, left_values in left.items():
                right_values = right.get(key)
                if right_values is None:
                    continue
                for lv in left_values:
                    for rv in right_values:
                        executor.charge_compute(prices.record_op)
                        yield key, (lv, rv)
        finally:
            executor.free_pinned_group(buffer_group)


def _slice(data: list, num_partitions: int) -> list[list]:
    """Split *data* into contiguous, evenly-sized partitions."""
    size, extra = divmod(len(data), num_partitions)
    slices = []
    start = 0
    for i in range(num_partitions):
        end = start + size + (1 if i < extra else 0)
        slices.append(data[start:end])
        start = end
    return slices
