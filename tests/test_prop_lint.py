"""Property test: the shadow validator never flags sound decompositions.

Strategy: generate a random (but well-formed) UDT whose fields are
primitives and primitive arrays, run the *real* pipeline — global
classification, schema construction, page-group appends into a group
that reports to a sanitizer's lifetime book, accessor writes — and
assert the differential checker reports zero DECA101 soundness
violations.  The engine and the linter implement the same §3.1
safety property independently; any disagreement is a bug in one of them.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ArrayType,
    ClassType,
    Const,
    DOUBLE,
    Field,
    INT,
    LONG,
    Local,
    Loop,
    Method,
    NewArray,
    NewObject,
    Return,
    StoreField,
    SymInput,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.global_refine import GlobalClassifier
from repro.core.plan import ContainerPlan
from repro.lint import check_observations
from repro.memory.layout import build_schema
from repro.memory.page import PageGroup
from repro.memory.sudt import bind_accessor
from repro.obs.sanitizer import Sanitizer

PRIMITIVES = (INT, LONG, DOUBLE)

field_spec = st.one_of(
    st.tuples(st.just("prim"), st.sampled_from(PRIMITIVES)),
    # ("array", element, declared length, proven fixed?)
    st.tuples(st.just("array"), st.sampled_from(PRIMITIVES),
              st.integers(min_value=0, max_value=5), st.booleans()),
)

udt_specs = st.lists(field_spec, min_size=1, max_size=4)


def _build_model(specs):
    """Turn a spec list into (ClassType, entry Method, fixed_lengths)."""
    fields = []
    arrays = []
    for index, spec in enumerate(specs):
        name = f"f{index}"
        if spec[0] == "prim":
            fields.append(Field(name, spec[1], final=True))
        else:
            _, element, length, fixed = spec
            array_type = ArrayType(element)
            fields.append(Field(name, array_type, final=True))
            arrays.append((name, array_type, length, fixed))
    cls = ClassType("PropRec", fields)
    ctor = Method(
        "<init>", params=tuple(f.name for f in fields),
        body=tuple(StoreField("this", f, Local(f.name)) for f in fields),
        owner=cls, is_constructor=True)

    loop_body = []
    args = []
    for f in fields:
        array = next((a for a in arrays if a[0] == f.name), None)
        if array is None:
            args.append(SymInput(f.name))
            continue
        _, array_type, length, fixed = array
        length_expr = Const(length) if fixed \
            else SymInput(f"{f.name}_len")
        loop_body.append(NewArray(f"{f.name}_arr", array_type,
                                  length_expr))
        args.append(Local(f"{f.name}_arr"))
    loop_body.append(NewObject("rec", cls, ctor=ctor, args=tuple(args)))
    entry = Method("prop.stage", body=(Loop(tuple(loop_body)), Return()))

    fixed_lengths = {id(array_type): length
                     for _, array_type, length, fixed in arrays if fixed}
    return cls, entry, fixed_lengths, arrays


def _value_for(spec, index, record_index):
    if spec[0] == "prim":
        base = record_index * 10 + index
        return float(base) if spec[1] is DOUBLE else base
    _, element, length, fixed = spec
    n = length if fixed else (record_index % 4)
    if element is DOUBLE:
        return tuple(float(i) for i in range(n))
    return tuple(range(n))


@settings(max_examples=40, deadline=None)
@given(specs=udt_specs, num_records=st.integers(min_value=1, max_value=8))
def test_sound_decompositions_never_trigger_deca101(specs, num_records):
    # A record made only of zero-length fixed arrays has zero size; the
    # page layer rejects those (scans could never advance past them), so
    # the shape is unreachable in the real engine.
    assume(any(spec[0] == "prim" or spec[2] > 0 or not spec[3]
               for spec in specs))
    cls, entry, fixed_lengths, _ = _build_model(specs)
    classifier = GlobalClassifier(CallGraph.build(entry,
                                                  known_types=(cls,)))
    size_type = classifier.classify(cls)
    assert size_type.decomposable, "generated types are always SFST/RFST"

    schema = build_schema(cls, size_type, fixed_lengths=fixed_lengths)
    records = [tuple(_value_for(spec, i, r)
                     for i, spec in enumerate(specs))
               for r in range(num_records)]

    report = ContainerPlan(target="cache:prop", udt=cls.name,
                           local_size_type=size_type,
                           global_size_type=size_type,
                           decomposed=True, reason="property test")

    sanitizer = Sanitizer()
    group = PageGroup("prop", 1024)
    group.sanitizer = sanitizer
    pointers = [group.append_record(schema, record) for record in records]
    # Size-preserving accessor writes are part of normal operation (e.g.
    # shuffle segment reuse) and must stay silent too.
    buf, off = group.read(pointers[0])
    bind_accessor(schema, buf, off).write(records[0])

    assert sum(sanitizer.record_sizes[cls.name].values()) == num_records
    findings = check_observations("prop", sanitizer, (report,))
    assert findings == [], [f.message for f in findings]
