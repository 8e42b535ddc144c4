"""Deca's page-based memory: real byte-level object decomposition.

Unlike the GC substrate (which is simulated), this package is the genuine
article: UDT objects are decomposed into byte segments inside fixed-size
pages, with field offsets computed from the type layout and *synthesized
accessor classes* (SUDTs, Appendix B) reading and writing the raw bytes —
no per-record Python objects survive.

* :mod:`repro.memory.layout` — byte-layout schemas for decomposable UDTs:
  field offsets, data-size computation, pack/unpack;
* :mod:`repro.memory.sudt` — synthesized accessor classes over segments;
* :mod:`repro.memory.page` — :class:`Page` and :class:`PageGroup`
  (§4.3.1): one group per container, reclaimed at once by its one owner
  when the container's lifetime ends;
* :mod:`repro.memory.manager` — the per-executor memory manager: the
  page-group registry, reporting each cache group to the executor arena;
* :mod:`repro.memory.unified` — the executor memory arena: one
  interface for cache, shuffle and Deca pages, implemented by the static
  split and by Spark 1.6's unified arena (SPARK-10000, execution/storage
  borrowing and cooperative spilling);
* :mod:`repro.memory.tier` — the cold tier: one interface for cache
  blocks, SQL relations and shuffle spills, implemented on the heap and
  by file-backed mmap extents promoted back as zero-copy views.
"""

from .layout import (
    FixedArraySchema,
    PrimitiveSlot,
    RecordSchema,
    Schema,
    VarArraySchema,
    build_schema,
)
from .sudt import SudtClass, synthesize_sudt
from .page import Page, PageGroup, PagePointer
from .manager import DecaMemoryManager
from .tier import PageStoreTier, TierExtent, TierStats
from .unified import (
    MemoryArena,
    MemoryConsumer,
    StaticMemoryArena,
    UnifiedMemoryManager,
    create_memory_arena,
)

__all__ = [
    "FixedArraySchema",
    "PrimitiveSlot",
    "RecordSchema",
    "Schema",
    "VarArraySchema",
    "build_schema",
    "SudtClass",
    "synthesize_sudt",
    "Page",
    "PageGroup",
    "PagePointer",
    "DecaMemoryManager",
    "PageStoreTier",
    "TierExtent",
    "TierStats",
    "MemoryArena",
    "MemoryConsumer",
    "StaticMemoryArena",
    "UnifiedMemoryManager",
    "create_memory_arena",
]
