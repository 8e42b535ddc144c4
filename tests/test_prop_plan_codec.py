"""Property test: the one record codec (``repro.core.plan``).

Every container that stores bytes — a SparkSer blob, a Deca cache block's
pages, its mmap-tier extent, a shuffle block in a shared segment — is
written through ``ContainerPlan.encoded`` / ``pack`` and read back
through ``ContainerPlan.decoded`` / ``records``.  For the plans the
benchmark applications actually produce (cache plans in ``spark-ser`` and
``deca``, every decomposed shuffle plan, the cogroup sides of CC with
their ``tag`` included) and arbitrary records of their schema, each
carrier must hand back exactly the records that went in, and each is
written by the one run writer (``Schema.pack_run``) with the bytes of
the per-field walker, which stays as the oracle.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.connected_components import run_connected_components
from repro.apps.kmeans import run_kmeans
from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.apps.sql_queries import run_query1, run_query2
from repro.apps.wordcount import run_wordcount
from repro.config import DecaConfig, ExecutionMode, MB
from repro.data.graphs import power_law_graph
from repro.data.tables import rankings_table, uservisits_table
from repro.data.text import random_words
from repro.data.vectors import clustered_points, labeled_points
from repro.exec.shm import (attach_page_group, list_segments,
                            pack_records_segment, read_segment_records,
                            shm_available, unlink_segment)
from repro.memory.layout import (FixedArraySchema, PrimitiveSlot,
                                 RecordSchema, StringSchema, VarArraySchema)
from repro.memory.page import PageGroup
from repro.memory.tier import PageStoreTier

APPS = {
    "lr": lambda c: run_logistic_regression(
        labeled_points(40, dimensions=4), c, iterations=1, num_partitions=2),
    "kmeans": lambda c: run_kmeans(
        clustered_points(40, dimensions=3, clusters=2), k=2, config=c,
        iterations=1, num_partitions=2),
    "wc": lambda c: run_wordcount(random_words(80, 20), c, num_partitions=2),
    "pr": lambda c: run_pagerank(
        power_law_graph(30, 100), c, iterations=1, num_partitions=2),
    "cc": lambda c: run_connected_components(
        power_law_graph(30, 100), c, iterations=1, num_partitions=2),
    "q1": lambda c: run_query1(rankings_table(30), c, num_partitions=2),
    "q2": lambda c: run_query2(uservisits_table(30), c, num_partitions=2),
}


def _byte_plans():
    """Every plan with a byte layout the apps make, by readable id."""
    plans = {}
    for mode in (ExecutionMode.SPARK_SER, ExecutionMode.DECA):
        for app, run in APPS.items():
            ctx = run(DecaConfig(mode=mode, heap_bytes=32 * MB,
                                 num_executors=2, tasks_per_executor=2)).ctx
            for plan in ctx._optimizer.reports:
                if plan.schema is not None:
                    plans[f"{mode.value}:{app}:{plan.target}"] = plan
    return plans


PLANS = _byte_plans()

_PRIMITIVES = {
    "boolean": st.booleans(),
    "byte": st.integers(-2**7, 2**7 - 1),
    "char": st.integers(0, 2**16 - 1),
    "short": st.integers(-2**15, 2**15 - 1),
    "int": st.integers(-2**31, 2**31 - 1),
    "float": st.floats(allow_nan=False, width=32),
    "long": st.integers(-2**63, 2**63 - 1),
    "double": st.floats(allow_nan=False, width=64),
}


#: A ``char[]`` holds a ``str``: any text, and astral text (surrogate
#: pairs in the page) on purpose.
_TEXT = st.one_of(st.text(max_size=5),
                  st.text(st.characters(min_codepoint=0x10000), min_size=1,
                          max_size=3))


def schema_values(schema):
    """A strategy for one record value of *schema*: its constructor's
    arguments (one argument bare), or its fields without a constructor."""
    if isinstance(schema, PrimitiveSlot):
        return _PRIMITIVES[schema.primitive.name]
    if isinstance(schema, RecordSchema):
        fields = [schema_values(field) for _, field in schema.fields]
        if schema.shape is None:
            return st.tuples(*fields)
        arguments, _ = schema.shape
        if len(arguments) == 1:
            return fields[arguments[0]]
        return st.tuples(*(fields[index] for index in arguments))
    if isinstance(schema, StringSchema):
        return _TEXT
    if isinstance(schema, FixedArraySchema):
        return st.tuples(*[schema_values(schema.element)] * schema.length)
    assert isinstance(schema, VarArraySchema)
    return st.lists(schema_values(schema.element), max_size=5).map(tuple)


def as_records(plan, values):
    """What the plan's container holds for *values* — spelled out here,
    not taken from the plan, so a codec that forgets a step is caught."""
    if plan.tag is None:
        return values
    return [(key, (plan.tag, value)) for key, value in values]


def test_the_apps_cover_both_families_and_a_tagged_side():
    assert any(p.tag is not None for p in PLANS.values())
    for family, strategy in (("cache", "serialized"),
                             ("cache", "deca-pages"),
                             ("shuffle", "deca-pages")):
        assert any(p.target.startswith(family)
                   and p.strategy.value == strategy
                   for p in PLANS.values()), (family, strategy)


def check_carriers(plan, records, tier_dir):
    """Write *records* into each carrier and read them back."""
    # A blob (SparkSer's block, a heap-tier disk image).
    blob = plan.pack(records)
    assert list(plan.records(blob)) == records
    assert list(plan.records(bytearray(blob))) == records

    # Page-group pages (a Deca cache block), small enough to need several.
    group = PageGroup("codec", page_bytes=256)
    for value in plan.encoded(records):
        group.append_record(plan.schema, value)
    pages = [memoryview(page.data)[:page.used] for page in group.pages]
    assert [r for page in pages for r in plan.records(page)] == records
    assert b"".join(pages) == blob

    # The same pages demoted into an mmap-tier extent.
    tier = PageStoreTier(str(tier_dir / "t.bin"))
    try:
        tier.swap_out("codec", pages)
        assert [r for view in tier.views("codec")
                for r in plan.records(view)] == records
    finally:
        for page in pages:
            page.release()
        tier.close()

    # A shared segment (an mp shuffle / cache block).
    if shm_available():
        name = f"repro-mp-test-{os.getpid()}-codec"
        ref = pack_records_segment(name, plan.schema, plan.encoded(records))
        try:
            assert list(read_segment_records(ref, plan)) == records
            attached = attach_page_group(ref)
            try:
                assert [r for page in attached.pages for r in
                        plan.records(page.data[:page.used])] == records
            finally:
                attached.reclaim()
        finally:
            unlink_segment(name)


@pytest.mark.parametrize("plan_id", sorted(PLANS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_carrier_returns_the_records_that_went_in(
        plan_id, tmp_path_factory, data):
    plan = PLANS[plan_id]
    values = data.draw(st.lists(schema_values(plan.schema), max_size=12))
    check_carriers(plan, as_records(plan, values),
                   tmp_path_factory.mktemp("tier"))


@pytest.mark.parametrize("plan_id", sorted(PLANS))
def test_an_empty_container_reads_back_empty(plan_id, tmp_path):
    assert PLANS[plan_id].pack([]) == b""
    check_carriers(PLANS[plan_id], [], tmp_path)


# -- the one writer: pages, segments and blobs hold the walker's bytes --------

FIXED_SIZE = sorted(plan_id for plan_id, plan in PLANS.items()
                    if plan.schema.fixed_size)


def walked(schema, values):
    """*values* packed back to back by the per-field walker."""
    out = bytearray(schema.fixed_size * len(values))
    offset = 0
    for value in values:
        offset = schema._pack_fields(out, offset, value)
    return bytes(out)


def untagged(plan):
    """*plan* holding its schema values as they are (no cogroup tag)."""
    return dataclasses.replace(plan, tag=None)


def test_the_apps_produce_fixed_size_schemas():
    assert len(FIXED_SIZE) >= 4


@pytest.mark.parametrize("plan_id", FIXED_SIZE)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_the_segment_pack_writes_the_walkers_bytes(plan_id, data):
    """A cache block's page group, a shared segment and a SparkSer blob
    are written by one ``Schema.pack_run``: each holds the walker's
    bytes."""
    plan = PLANS[plan_id]
    schema = plan.schema
    values = data.draw(st.lists(schema_values(schema), min_size=1,
                                max_size=12))
    want = walked(schema, values)
    assert untagged(plan).pack(values) == want

    group = PageGroup("walk", page_bytes=64)
    assert group.append_records(schema, iter(values)) == len(values)
    assert b"".join(bytes(page.data[:page.used])
                    for page in group.pages) == want

    if not shm_available():
        return
    name = f"repro-mp-test-{os.getpid()}-fixed"
    ref = pack_records_segment(name, schema, values)
    try:
        assert ref.nbytes == len(want)
        group = attach_page_group(ref)
        try:
            page = group.pages[0]
            assert bytes(page.data[:page.used]) == want
        finally:
            group.reclaim()
    finally:
        unlink_segment(name)


def _spoiled(value):
    """*value* with its first primitive replaced by a string."""
    if isinstance(value, tuple):
        return (_spoiled(value[0]),) + value[1:]
    return "x"


@pytest.mark.parametrize("plan_id", FIXED_SIZE)
@pytest.mark.parametrize("spoil", ["type", "arity"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_rejected_value_raises_the_walkers_error_and_leaves_no_segment(
        plan_id, spoil, data):
    """Every writer raises the walker's error for a rejected value; the
    page group keeps the records before it, and no segment is left."""
    plan = PLANS[plan_id]
    schema = plan.schema
    values = data.draw(st.lists(schema_values(schema), min_size=1,
                                max_size=6))
    at = data.draw(st.integers(0, len(values) - 1))
    bad = _spoiled(values[at]) if spoil == "type" else values[at] + (0,)
    values[at] = bad
    with pytest.raises(Exception) as walker:
        schema._pack_fields(bytearray(schema.fixed_size), 0, bad)
    error = type(walker.value), str(walker.value)

    with pytest.raises(error[0]) as blob:
        untagged(plan).pack(values)
    assert str(blob.value) == error[1]

    group = PageGroup("rejected", page_bytes=64)
    with pytest.raises(error[0]) as paged:
        group.append_records(schema, values)
    assert str(paged.value) == error[1]
    assert list(group.records(schema)) == list(
        schema.iter_unpack(walked(schema, values[:at])))

    if not shm_available():
        return
    name = f"repro-mp-test-{os.getpid()}-rejected"
    with pytest.raises(error[0]) as packed:
        pack_records_segment(name, schema, values)
    assert str(packed.value) == error[1]
    assert list_segments(name) == []
