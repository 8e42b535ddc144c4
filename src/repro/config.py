"""Configuration for the Deca reproduction.

A single :class:`DecaConfig` object carries every tunable of the simulated
runtime: heap geometry, garbage-collector cost model, serializer and I/O cost
constants, and the Deca page geometry.  All times are **simulated
milliseconds** and all sizes are **bytes**; nothing here measures wall-clock
time.

The default constants are calibrated so that the scaled-down benchmark
workloads reproduce the *shapes* of the paper's figures (who wins, by roughly
what factor, and where the crossovers fall) — see DESIGN.md §5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class ExecutionMode(enum.Enum):
    """How the engine stores intermediate and cached data.

    SPARK      -- plain object graphs (the paper's Spark 1.6 baseline).
    SPARK_SER  -- Kryo-serialized cache blocks ("SparkSer" in the paper).
    DECA       -- lifetime-based page decomposition (the contribution).
    """

    SPARK = "spark"
    SPARK_SER = "spark-ser"
    DECA = "deca"


class GcAlgorithm(enum.Enum):
    """The three Hotspot collectors modelled by :mod:`repro.jvm.collectors`."""

    PARALLEL_SCAVENGE = "ps"
    CMS = "cms"
    G1 = "g1"


@dataclass(frozen=True)
class GcCostModel:
    """Cost constants for one collector.

    The dominant term everywhere is ``trace_per_object``: tracing cost grows
    with the number of *live* objects, which is the effect the paper exploits
    (§2.1, §6.4).  Concurrent collectors (CMS/G1) convert most of the full-GC
    pause into background CPU work, modelled by ``pause_fraction`` (how much
    of the collection cost still stops the application) and
    ``concurrent_tax`` (extra application-thread slowdown per unit of
    concurrent collection work).
    """

    minor_base_ms: float = 0.3
    minor_trace_per_object_ms: float = 2.5e-4
    minor_copy_per_byte_ms: float = 4.0e-8
    full_base_ms: float = 5.0
    full_trace_per_object_ms: float = 1.2e-3
    full_sweep_per_byte_ms: float = 1.0e-8
    pause_fraction: float = 1.0
    concurrent_tax: float = 0.0
    # Young collections cost more under CMS/G1 (card tables, remembered
    # sets, refinement) — the reason concurrent collectors lose on
    # shuffle-heavy jobs in Table 4.
    minor_multiplier: float = 1.0


_GC_COST_MODELS: dict[GcAlgorithm, GcCostModel] = {
    # Stop-the-world, throughput collector: the whole cost is a pause.
    GcAlgorithm.PARALLEL_SCAVENGE: GcCostModel(),
    # Mostly-concurrent old-gen collection: short pauses, but the concurrent
    # mark/sweep threads steal CPU from application threads.
    GcAlgorithm.CMS: GcCostModel(pause_fraction=0.08, concurrent_tax=0.35,
                                 minor_multiplier=1.5),
    # Region-based incremental collection: even shorter pauses, higher
    # bookkeeping overhead (remembered sets, refinement threads).
    GcAlgorithm.G1: GcCostModel(pause_fraction=0.04, concurrent_tax=0.22,
                                minor_multiplier=2.0),
}


def gc_cost_model(algorithm: GcAlgorithm) -> GcCostModel:
    """Return the calibrated cost model for *algorithm*."""
    return _GC_COST_MODELS[algorithm]


@dataclass(frozen=True)
class SerializerCosts:
    """Per-object serialization cost model (Kryo-like, Table 5 bottom rows).

    The paper measures Kryo at roughly 3.7 units to serialize one object and
    27 units to deserialize it, while Deca "serialization" (writing raw bytes
    into a page) costs about the same as Kryo serialization and
    deserialization is free (field reads go straight to the bytes).
    """

    kryo_ser_per_object_ms: float = 3.7e-4
    kryo_deser_per_object_ms: float = 2.7e-3
    deca_write_per_object_ms: float = 3.9e-4
    deca_read_per_object_ms: float = 0.0
    per_byte_ms: float = 2.0e-9


@dataclass(frozen=True)
class IoCosts:
    """Disk and network cost model for spilling, swapping and shuffling."""

    disk_write_per_byte_ms: float = 1.0e-5   # ~100 MB/s SAS disk
    disk_read_per_byte_ms: float = 8.0e-6
    disk_seek_ms: float = 8.0
    network_per_byte_ms: float = 8.5e-6      # ~120 MB/s effective
    network_rtt_ms: float = 0.5
    # The mmap cold tier (cold_tier="mmap") moves bytes at memory-bus
    # rather than disk bandwidth, and extents need no seek.
    tier_write_per_byte_ms: float = 4.0e-7   # ~2.5 GB/s
    tier_read_per_byte_ms: float = 2.5e-7    # ~4 GB/s


@dataclass(frozen=True)
class CpuCosts:
    """Application-side compute cost constants (per record / per operation)."""

    record_op_ms: float = 1.5e-3       # one UDF application on one record
    arithmetic_per_dim_ms: float = 1.0e-4   # per vector dimension (LR/KMeans)
    hash_probe_ms: float = 3.0e-5      # hash-based shuffle insert/combine
    sort_per_record_ms: float = 8.0e-5  # amortized comparison cost
    object_alloc_ms: float = 1.2e-5    # allocating one object in the heap
    boxing_ms: float = 1.0e-5          # auto-boxing a primitive (generic code)
    page_access_ms: float = 5.0e-7     # reading/writing one decomposed field


@dataclass(frozen=True)
class ScriptedFault:
    """One deterministic failure at an exact execution point.

    *kind* selects the failure mode:

    * ``"task-kill"`` — the attempt matching ``(stage_id, partition,
      attempt)`` dies (after ``after_ops`` compute charges, so partial
      task state exists and must be cleaned up);
    * ``"executor-crash"`` — the executor running that attempt crashes,
      losing its cache blocks and shuffle outputs;
    * ``"fetch-corrupt"`` — the read of shuffle block ``(shuffle_id,
      map_part, reduce_part)`` returns corrupt bytes, forcing the map
      output to be regenerated.

    ``stage_id`` / ``partition`` of ``-1`` act as wildcards, as do the
    ``-1`` defaults of the fetch coordinates.
    """

    kind: str
    stage_id: int = -1
    partition: int = -1
    attempt: int = 0
    after_ops: int = 0
    shuffle_id: int = -1
    map_part: int = -1
    reduce_part: int = -1

    KINDS = ("task-kill", "executor-crash", "fetch-corrupt")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(
                f"unknown scripted fault kind {self.kind!r}; "
                f"choose from {self.KINDS}")


@dataclass(frozen=True)
class FaultConfig:
    """Failure-injection and recovery policy (the mini-Spark analogue of
    ``spark.task.maxFailures`` / ``spark.speculation`` plus a test-only
    fault injector).

    All probabilities are evaluated on a dedicated seeded RNG, so two runs
    with the same seed inject byte-identical failure sequences.  Backoff
    waits advance the *simulated* clock — never wall time.  The retry,
    restart and speculation constants live in :mod:`repro.spark.faults`.
    """

    # --- injection ---------------------------------------------------------
    seed: int = 17
    task_kill_prob: float = 0.0
    fetch_corruption_prob: float = 0.0
    scripted: tuple[ScriptedFault, ...] = ()

    # --- speculation -------------------------------------------------------
    speculation: bool = False

    def __post_init__(self) -> None:
        for name in ("task_kill_prob", "fetch_corruption_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]: {value}")

    @property
    def injection_enabled(self) -> bool:
        """Whether any failure can actually be injected."""
        return bool(self.scripted) or any(
            p > 0.0 for p in (self.task_kill_prob,
                              self.fetch_corruption_prob))


@dataclass(frozen=True)
class DecaConfig:
    """Top-level configuration of a simulated Deca/Spark deployment."""

    # --- cluster geometry -------------------------------------------------
    num_executors: int = 4
    tasks_per_executor: int = 4

    # --- execution backend (docs/execution_backends.md) -------------------
    # ``"sim"`` runs every task inline on the simulated clocks (the
    # byte-deterministic default); ``"mp"`` runs stages on a real
    # ``multiprocessing`` worker pool with decomposed shuffle/cache data
    # crossing process boundaries through shared-memory Deca pages.
    execution_backend: str = "sim"
    # Worker processes per stage under the mp backend; 0 means one per
    # simulated executor (so the split -> executor mapping is preserved).
    mp_workers: int = 0
    # Wall-clock ceiling for one mp stage wave; a hung worker pool is
    # terminated (and the stage fails) rather than deadlocking the run.
    mp_stage_timeout_s: float = 120.0

    # --- heap geometry (per executor) ------------------------------------
    heap_bytes: int = 256 * MB
    young_fraction: float = 1.0 / 3.0
    gc_algorithm: GcAlgorithm = GcAlgorithm.PARALLEL_SCAVENGE

    # --- Spark memory fractions (Table 4 tuning knobs) --------------------
    # Fraction of the heap reserved for the block cache and for shuffle
    # buffers respectively.  They mirror Spark 1.x's
    # ``spark.storage.memoryFraction`` / ``spark.shuffle.memoryFraction``.
    storage_fraction: float = 0.6
    shuffle_fraction: float = 0.4

    # --- unified memory arena (SPARK-10000, docs/memory_model.md) ---------
    # ``"static"`` keeps the legacy fixed split above; ``"unified"`` pools
    # execution and storage into one per-executor arena with borrowing,
    # like the Spark 1.6 runtime the paper's baseline actually ran under
    # (its fractions are constants in repro.memory.unified).
    memory_mode: str = "static"

    # --- cold tier (docs/memory_model.md) ---------------------------------
    # Where swapped cache blocks, demoted SQL relations and shuffle spills
    # go; only repro.memory.tier.cold_tier_for reads it.  ``"heap"``
    # parks payloads and drained page copies at simulated-disk cost (the
    # paper figures); ``"mmap"`` moves raw page bytes into file-backed
    # extents promoted back zero-copy: no copies, no serializer charge.
    cold_tier: str = "heap"

    # --- runtime sanitizer (docs/static_analysis.md) ----------------------
    # When on, the run has one repro.obs.sanitizer.Sanitizer that records
    # each exported zero-copy view with its backing (extent / shm segment
    # / adopting page group), poisons freed extents with a sentinel fill,
    # checks the happens-before edges between the driver and the mp
    # workers, and raises repro.errors.SanitizerError from
    # ``ctx.finish()`` on any violation.  Off (the default) adds zero work
    # to the hot paths.
    sanitize: bool = False

    # --- Deca page geometry (§4.3.1) --------------------------------------
    page_bytes: int = 1 * MB

    # --- cost models -------------------------------------------------------
    serializer: SerializerCosts = field(default_factory=SerializerCosts)
    io: IoCosts = field(default_factory=IoCosts)
    cpu: CpuCosts = field(default_factory=CpuCosts)

    # --- fault tolerance ----------------------------------------------------
    faults: FaultConfig = field(default_factory=FaultConfig)

    # --- engine behaviour ---------------------------------------------------
    mode: ExecutionMode = ExecutionMode.SPARK
    # Profiler sampling period on the simulated clock (Figs. 8a / 9a).
    profiler_period_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.num_executors < 1:
            raise ConfigError("num_executors must be >= 1")
        if self.tasks_per_executor < 1:
            raise ConfigError("tasks_per_executor must be >= 1")
        if self.execution_backend not in ("sim", "mp"):
            raise ConfigError(
                f"execution_backend must be 'sim' or 'mp': "
                f"{self.execution_backend!r}")
        if self.mp_workers < 0:
            raise ConfigError("mp_workers must be >= 0")
        if self.mp_stage_timeout_s <= 0:
            raise ConfigError("mp_stage_timeout_s must be positive")
        if self.heap_bytes <= 0:
            raise ConfigError("heap_bytes must be positive")
        if not 0.0 < self.young_fraction < 1.0:
            raise ConfigError("young_fraction must be in (0, 1)")
        if self.page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        if self.page_bytes > self.heap_bytes:
            raise ConfigError("page_bytes cannot exceed heap_bytes")
        if not 0.0 <= self.storage_fraction <= 1.0:
            raise ConfigError("storage_fraction must be in [0, 1]")
        if not 0.0 <= self.shuffle_fraction <= 1.0:
            raise ConfigError("shuffle_fraction must be in [0, 1]")
        if self.storage_fraction + self.shuffle_fraction > 1.0 + 1e-9:
            raise ConfigError(
                "storage_fraction + shuffle_fraction cannot exceed 1.0"
            )
        if self.cold_tier not in ("heap", "mmap"):
            raise ConfigError(
                f"cold_tier must be 'heap' or 'mmap': {self.cold_tier!r}")
        if self.memory_mode not in ("static", "unified"):
            raise ConfigError(
                f"memory_mode must be 'static' or 'unified': "
                f"{self.memory_mode!r}")

    # Convenience views -----------------------------------------------------
    @property
    def young_bytes(self) -> int:
        """Capacity of the young generation."""
        return int(self.heap_bytes * self.young_fraction)

    @property
    def old_bytes(self) -> int:
        """Capacity of the old generation."""
        return self.heap_bytes - self.young_bytes

    @property
    def storage_bytes(self) -> int:
        """Per-executor byte budget for the block cache."""
        return int(self.heap_bytes * self.storage_fraction)

    @property
    def shuffle_bytes(self) -> int:
        """Per-executor byte budget for shuffle buffers."""
        return int(self.heap_bytes * self.shuffle_fraction)

    @property
    def gc_costs(self) -> GcCostModel:
        """Cost model of the configured collector."""
        return gc_cost_model(self.gc_algorithm)

    def with_options(self, **changes: Any) -> "DecaConfig":
        """Return a copy with *changes* applied (validated like a fresh one)."""
        return replace(self, **changes)
