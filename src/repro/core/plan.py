"""The per-container plan: one decision, its evidence and its codec.

The paper's unit of decision is the *data container* (§4.2–§4.3): a cache
block or a shuffle buffer is classified once, decomposed or not, and
everything that touches it follows that one decision.  A
:class:`ContainerPlan` is that decision as one value — the verdict and
why (what ``repro.lint`` audits), the storage strategy and the record
codec (what the engine executes).  One emitter makes every plan: the
optimizer (:mod:`repro.core.optimizer`, Appendix A), in every execution
mode — the object-form / Kryo-serialized ones of the Spark baselines, the
decomposed pages of Deca, and the row- or column-major pages of a cached
SQL relation.

A record is its UDT's value (:func:`repro.memory.layout.record_shape`),
so :meth:`~ContainerPlan.pack` / :meth:`~ContainerPlan.records` go
between the app's own records and back-to-back bytes, and
:meth:`~ContainerPlan.encoded` / :meth:`~ContainerPlan.decoded` only
strip / re-attach a cogroup side tag.
The sim engine, the mp worker and the driver-side readers all go through
them, so the representations cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, TYPE_CHECKING

from ..analysis.size_type import SizeType
from ..memory.layout import Schema

if TYPE_CHECKING:
    from ..spark.measure import RecordFootprint


class StorageStrategy(enum.Enum):
    """How a container stores its records."""

    OBJECTS = "objects"
    SERIALIZED = "serialized"
    DECA_PAGES = "deca-pages"
    #: One page run per field (a cached SQL relation, column-major).
    DECA_COLUMNS = "deca-columns"


@dataclass(frozen=True)
class ContainerPlan:
    """What was decided for one cache dataset / shuffle, and why.

    *schema* is set exactly when the container holds packed bytes: a
    decomposed container's pages, a SparkSer block with an RFST layout,
    or a cached SQL relation (its record, whichever way it is laid out).
    *value_segment_reuse* — the combined Value is an SFST, so eager merges
    overwrite the segment in place instead of allocating (§4.3.2).
    *pointer_array* — sorting/hashing runs over an array of pointers into
    the pages (Fig. 6(b)); elidable when Key and Value are primitives or
    SFSTs, because segment offsets are then statically known.
    *tag* — a cogroup side's constant: stored bytes omit it, reads
    re-attach it.

    ``decomposed``, ``value_segment_reuse`` and ``measure`` are read per
    record by the shuffle writer — keep them plain attributes.
    """

    target: str
    udt: str | None
    local_size_type: SizeType | None
    global_size_type: SizeType | None
    decomposed: bool
    reason: str
    strategy: StorageStrategy = StorageStrategy.OBJECTS
    schema: Schema | None = None
    measure: Callable[[Any], "RecordFootprint"] | None = None
    value_segment_reuse: bool = False
    pointer_array: bool = False
    tag: int | None = None

    def to_dict(self) -> dict[str, object]:
        """The verdict as JSON (``repro.lint`` summaries)."""
        return {
            "target": self.target,
            "udt": self.udt,
            "local": (self.local_size_type.value
                      if self.local_size_type else None),
            "global": (self.global_size_type.value
                       if self.global_size_type else None),
            "decomposed": self.decomposed,
            "reason": self.reason,
        }

    # -- the codec ---------------------------------------------------------
    def encoded(self, records: Sequence[Any]) -> Sequence[Any]:
        """Records as schema values (a cogroup side tag stripped)."""
        return records if self.tag is None else list(map(self.encode, records))

    def encode(self, record: Any) -> Any:
        """One record as its schema value."""
        return record if self.tag is None else (record[0], record[1][1])

    def decoded(self, values: Iterable[Any]) -> Iterable[Any]:
        """Schema values as records (the side tag re-attached)."""
        if self.tag is None:
            return values
        tag = self.tag
        return ((key, (tag, value)) for key, value in values)

    def pack(self, records: Sequence[Any]) -> bytes:
        """Records packed back to back in the schema's layout."""
        schema = self.schema
        assert schema is not None
        values = self.encoded(records)
        blob = bytearray(schema.size_of_run(values))
        schema.pack_run(blob, 0, values)
        return bytes(blob)

    def records(self, buffer: bytes | bytearray | memoryview
                ) -> Iterator[Any]:
        """Decode *buffer* — a blob, a page's used bytes, a tier extent
        view or a shared segment: records back to back, nothing else."""
        assert self.schema is not None
        return iter(self.decoded(self.schema.iter_unpack(buffer)))
