"""Property test: the one record codec (``repro.core.plan``).

Every container that stores bytes — a SparkSer blob, a Deca cache block's
pages, its mmap-tier extent, a shuffle block in a shared segment — is
written through ``ContainerPlan.encoded`` / ``pack`` and read back
through ``ContainerPlan.decoded`` / ``records``.  For the plans the
benchmark applications actually produce (cache plans in ``spark-ser`` and
``deca``, every decomposed shuffle plan, the cogroup sides of CC with
their ``tag`` included) and arbitrary records of their schema, each
carrier must hand back exactly the records that went in.
"""

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
from repro.exec.shm import (attach_page_group, pack_records_segment,
                            read_segment_records, shm_available,
                            unlink_segment)
from repro.memory.layout import (FixedArraySchema, PrimitiveSlot,
                                 RecordSchema, VarArraySchema)
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
            for plan in ctx._plans.values():
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


def schema_values(schema):
    """A strategy for one value of *schema*'s nested-tuple shape."""
    if isinstance(schema, PrimitiveSlot):
        return _PRIMITIVES[schema.primitive.name]
    if isinstance(schema, RecordSchema):
        return st.tuples(*(schema_values(field)
                           for _, field in schema.fields))
    if isinstance(schema, FixedArraySchema):
        return st.tuples(*[schema_values(schema.element)] * schema.length)
    assert isinstance(schema, VarArraySchema)
    return st.lists(schema_values(schema.element), max_size=5).map(tuple)


def as_records(plan, values):
    """What the plan's container holds for *values* — spelled out here,
    not taken from the plan, so a codec that forgets a step is caught."""
    records = [plan.decode(value) if plan.decode else value
               for value in values]
    if plan.tag is not None:
        records = [(key, (plan.tag, value)) for key, value in records]
    return records


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
        ref = pack_records_segment(name, plan.schema,
                                   list(plan.encoded(records)))
        try:
            assert list(read_segment_records(ref, plan)) == records
            attached = attach_page_group(ref)
            info = attached.new_page_info()
            try:
                assert [r for page in attached.pages for r in
                        plan.records(page.data[:page.used])] == records
            finally:
                info.close()
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
