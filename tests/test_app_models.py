"""The apps' record types: one model per app, read by engine and lint."""

import pytest

from repro.analysis import ArrayLength, Const, Local, NewObject
from repro.analysis.callgraph import CallGraph
from repro.analysis.ir import statements_recursive
from repro.analysis.size_type import SizeType
from repro.apps.connected_components import label_message_udt_info
from repro.apps.kmeans import cluster_stat_udt_info, point_udt_info
from repro.apps.logistic_regression import labeled_point_udt_info
from repro.apps.pagerank import (
    adjacency_udt_info,
    edge_udt_info,
    message_udt_info,
    run_pagerank,
)
from repro.apps.sql_queries import ranking_udt_info, uservisit_udt_info
from repro.apps.wordcount import wordcount_udt_info
from repro.config import DecaConfig, ExecutionMode
from repro.data.graphs import power_law_graph
from repro.data.vectors import labeled_points
from repro.lint import LINT_APPS_BY_NAME
from repro.memory.sudt import bind_accessor
from repro.spark import DecaContext


def _allocated(method):
    return {id(stmt.cls) for stmt in statements_recursive(method.body)
            if isinstance(stmt, NewObject)}


def test_one_pagerank_job_reads_one_model():
    run = run_pagerank(power_law_graph(60, 300),
                       DecaConfig(mode=ExecutionMode.DECA), iterations=1,
                       num_partitions=2)
    infos = {rdd.name: rdd.udt_info for rdd in run.ctx._rdds.values()}
    edge, adjacency, message = \
        infos["pr.edges"], infos["pr.adjacency"], infos["pr.contribs"]
    assert infos["pr.initRanks"] is message
    # The iterate phase both infos analyse is one method, and the build
    # phase allocates the very types the edge and adjacency infos name.
    assert adjacency.entry_method is message.entry_method
    assert id(message.udt) in _allocated(message.entry_method)
    assert {id(edge.udt), id(adjacency.udt)} \
        <= _allocated(edge.entry_method)
    neighbors = adjacency.udt.field("neighbors")

    target = LINT_APPS_BY_NAME["pr"].make_targets()[0]
    assert target.udt_info.udt is adjacency.udt
    assert target.materialized_fields == (neighbors,)
    assert target.materialized_fields[0] is neighbors
    build, iterate = (phase.callgraph.entry for phase in target.phases)
    assert build is edge.entry_method
    assert iterate is adjacency.entry_method


@pytest.mark.parametrize("proved", [True, False])
def test_the_adjacency_verdict_comes_from_the_init_only_proof(
        monkeypatch, proved):
    """Nothing vouches for ``neighbors`` in the engine: the iterate
    stage's own code proves it init-only (``CallGraph.is_init_only``,
    §3.3), and the cached adjacency plan's RFST verdict rests on that
    proof alone."""
    neighbors = adjacency_udt_info().udt.field("neighbors")
    asked = []
    proof = CallGraph.is_init_only

    def is_init_only(callgraph, field):
        if field is not neighbors:
            return proof(callgraph, field)
        asked.append(field)
        return proved and proof(callgraph, field)

    monkeypatch.setattr(CallGraph, "is_init_only", is_init_only)
    ctx = run_pagerank(power_law_graph(30, 100),
                       DecaConfig(mode=ExecutionMode.DECA), iterations=1,
                       num_partitions=2).ctx
    (plan,) = [plan for plan in ctx._optimizer.reports
               if plan.target == "cache:pr.adjacency"]
    assert asked
    assert plan.decomposed is proved
    assert plan.global_size_type is (SizeType.RUNTIME_FIXED if proved
                                     else SizeType.VARIABLE)


def test_cached_lr_record_holds_what_the_constructor_stores():
    """The constructor IR describes the bytes: each DenseVector slot of a
    cached page record is what ``<init>`` stores into that field."""
    info = labeled_point_udt_info(5)
    ctx = DecaContext(DecaConfig(mode=ExecutionMode.DECA, num_executors=1))
    ctx.parallelize(labeled_points(20, dimensions=5), 1) \
        .map(lambda r: r, udt_info=info).cache().count()
    (block,) = ctx.executors[0].cache.blocks.values()
    page = block.page_group.pages[0]
    features = bind_accessor(block.plan.schema, page.data, 0).features
    (dense_vector,) = info.udt.field("features").type_set
    # The page's slots, read field by field through the accessor.
    vector = tuple(features.data.to_tuple() if field.name == "data"
                   else getattr(features, field.name)
                   for field in dense_vector.fields)
    ctx.finish()

    ctor = dense_vector.constructor
    args = dict(zip(ctor.params, vector))
    stored = {}
    for store in ctor.body:
        expr = store.value
        if isinstance(expr, Const):
            stored[store.field.name] = expr.value
        elif isinstance(expr, ArrayLength):
            stored[store.field.name] = len(args[expr.array])
        else:
            assert isinstance(expr, Local)
            stored[store.field.name] = args[expr.name]
    assert stored == dict(zip((f.name for f in dense_vector.fields),
                              vector))
    assert stored["length"] == 5


@pytest.mark.parametrize("make_info,static_fixed", [
    (lambda: labeled_point_udt_info(10), True),
    (lambda: point_udt_info(6), True),
    (lambda: cluster_stat_udt_info(6), True),
    (adjacency_udt_info, False),
    (message_udt_info, True),
    (edge_udt_info, True),
    (label_message_udt_info, True),
    (wordcount_udt_info, False),
    (ranking_udt_info, False),
    (uservisit_udt_info, False),
], ids=["lr", "km-point", "km-stat", "pr-adjacency", "pr-message",
        "pr-edge", "cc-message", "wc", "q1", "q2"])
def test_measure_caches_exactly_the_sfst_records(make_info, static_fixed):
    """A record's footprint is measured once when its UDT refines to an
    SFST, and per record otherwise."""
    assert make_info().static_fixed is static_fixed
