"""Property test: ``PageGroup.append_records`` is a loop of
``append_record``.

The bulk build fills a fixed-size schema's pages one packed run at a
time; a length-prefixed schema goes record by record.  Either way a
group built in one call must be indistinguishable from one built by the
per-record loop: the same page bytes and used counts, the same pages,
the same ``SimHeap`` allocations (one byte array per page), the same
``on_resize`` deltas the unified arena sees, and the same lifetime book
in the sanitizer.  The cases cover page sizes that do and do not divide
the record size, records larger than a page, a group whose last page is
already partly filled, and empty input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import BYTE, DOUBLE, INT, LONG
from repro.config import DecaConfig, MB
from repro.jvm import SimHeap
from repro.memory.layout import (FixedArraySchema, PrimitiveSlot,
                                 RecordSchema, VarArraySchema)
from repro.memory.page import PageGroup
from repro.obs.sanitizer import Sanitizer
from repro.simtime import SimClock

_INTS = st.integers(-2**31, 2**31 - 1)
_DOUBLES = st.floats(allow_nan=False)

#: name -> (schema, strategy for one value of it)
SCHEMAS = {
    "int": (PrimitiveSlot(INT), _INTS),
    "point": (RecordSchema("Point", [("x", PrimitiveSlot(DOUBLE)),
                                     ("tag", PrimitiveSlot(INT))]),
              st.tuples(_DOUBLES, _INTS)),
    "labeled": (RecordSchema("Labeled", [
        ("label", PrimitiveSlot(DOUBLE)),
        ("features", FixedArraySchema(PrimitiveSlot(DOUBLE), 3))]),
        st.tuples(_DOUBLES, st.tuples(_DOUBLES, _DOUBLES, _DOUBLES))),
    "adjacency": (RecordSchema("Adjacency", [
        ("vid", PrimitiveSlot(LONG)),
        ("targets", VarArraySchema(PrimitiveSlot(INT)))]),
        st.tuples(st.integers(-2**63, 2**63 - 1),
                  st.lists(_INTS, max_size=6).map(tuple))),
}


class _Built:
    """One page group plus everything it reports to the outside."""

    def __init__(self, page_bytes: int) -> None:
        config = DecaConfig(heap_bytes=64 * MB, page_bytes=page_bytes)
        self.heap = SimHeap(config, SimClock())
        self.allocations: list[tuple[int, int]] = []
        allocate = self.heap.allocate

        def logged(group, objects, nbytes):
            self.allocations.append((objects, nbytes))
            allocate(group, objects, nbytes)

        self.heap.allocate = logged
        self.deltas: list[int] = []
        self.group = PageGroup("g", page_bytes, heap=self.heap,
                               on_resize=lambda _, delta:
                               self.deltas.append(delta))
        self.sanitizer = Sanitizer()
        self.group.sanitizer = self.sanitizer

    def observed(self) -> tuple:
        return (
            [(page.index, page.used, bytes(page.data))
             for page in self.group.pages],
            self.group.used_bytes, self.group.allocated_bytes,
            self.allocations, self.heap.live_objects, self.heap.live_bytes,
            self.deltas, self.sanitizer.record_sizes,
            self.sanitizer.group_bytes)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SCHEMAS)),
       page_bytes=st.integers(1, 96), prefill=st.integers(0, 40))
def test_batch_append_equals_the_per_record_loop(data, name, page_bytes,
                                                 prefill):
    schema, values = SCHEMAS[name]
    records = data.draw(st.lists(values, max_size=40), label="records")
    batch, loop = _Built(page_bytes), _Built(page_bytes)
    for built in (batch, loop):
        if prefill:
            # A last page already partly (or exactly) filled.
            built.group.append_record(
                FixedArraySchema(PrimitiveSlot(BYTE), prefill),
                tuple(range(prefill)))

    # A generator: the bulk path must not need a sized input.
    assert batch.group.append_records(
        schema, (value for value in records)) == len(records)
    for value in records:
        loop.group.append_record(schema, value)

    assert batch.observed() == loop.observed()
    if not prefill:
        assert list(batch.group.records(schema)) == records


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_empty_input_opens_no_page(name):
    schema, _ = SCHEMAS[name]
    built = _Built(64)
    assert built.group.append_records(schema, []) == 0
    assert built.group.pages == [] and built.allocations == []
    assert built.deltas == [] and built.sanitizer.record_sizes == {}
