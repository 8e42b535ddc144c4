"""PageRank — mixed caching and shuffling (§6.3, Fig. 10(a)).

Following the paper's setup: ``groupByKey`` turns the edge list into
adjacency lists which are cached for all iterations; every iteration joins
the adjacency lists with the current ranks and aggregates the contribution
messages per target vertex.  Adjacency lists and ranks keep ``groupByKey``'s
partitioner (``mapValues``), so the join reads both where they are and the
``reduceByKey`` is the iteration's only shuffle.  The adjacency array is a
VST inside the grouping shuffle buffer but init-only afterwards, so Deca
decomposes it *in the cache* while leaving the buffer in object form — the
partially-decomposable pattern of Fig. 7(b).
"""

from __future__ import annotations

from ..config import DecaConfig
from ..spark.rdd import UdtInfo
from .common import AppRun, make_context
from .udts import (
    AdjacencyList,
    EDGE_OBJECTS,
    Edge,
    GRAPH_BUILD,
    GRAPH_ITERATE,
    RankMessage,
)

#: One directed edge as the engine holds it: ``(src, dst)``.
EdgePair = tuple[int, int]


def adjacency_udt_info() -> UdtInfo:
    """The AdjacencyList model: RFST in the phases that read the cache
    (Algorithm 4 proves ``neighbors`` init-only over the iterate stage)."""
    return UdtInfo(udt=AdjacencyList, entry_method=GRAPH_ITERATE)


def message_udt_info() -> UdtInfo:
    """The ``RankMessage(target: Long, rank: Double)`` model — an SFST,
    so Deca decomposes the aggregation buffers and reuses the value
    segment on every combine (§4.3.2)."""
    return UdtInfo(udt=RankMessage, entry_method=GRAPH_ITERATE)


def edge_udt_info() -> UdtInfo:
    """The ``Edge(src: Long, dst: Long)`` model — an SFST, so Deca
    decomposes the map side of the grouping shuffle.  Spark holds an edge
    as a ``Tuple2`` of two boxed ``Long``s, which is what is measured."""
    return UdtInfo(udt=Edge, entry_method=GRAPH_BUILD,
                   object_model=EDGE_OBJECTS)


def build_adjacency(ctx, edges: list[EdgePair], num_partitions: int,
                    name: str = "pr"):
    """Edge list → cached adjacency lists (the paper's first stage)."""
    edge_rdd = ctx.parallelize(edges, num_partitions, name=f"{name}.edges",
                               udt_info=edge_udt_info())
    grouped = edge_rdd.group_by_key(num_partitions,
                                    name=f"{name}.groupEdges")
    # mapValues keeps groupByKey's partitioner, so the per-iteration join
    # reads the cached lists in place instead of re-shuffling them.
    return grouped.map_values(tuple, name=f"{name}.adjacency") \
        .with_udt(adjacency_udt_info()).cache()


def run_pagerank(edges: list[EdgePair], config: DecaConfig | None = None,
                 iterations: int = 10, num_partitions: int = 8,
                 damping: float = 0.85) -> AppRun:
    """Rank vertices; returns ``{vertex: rank}`` and run metrics."""
    if not edges:
        raise ValueError("pagerank needs a non-empty edge list")
    ctx = make_context(config)
    adjacency = build_adjacency(ctx, edges, num_partitions, name="pr")

    msg_info = message_udt_info()
    ranks = adjacency.map_values(lambda _: 1.0, name="pr.initRanks") \
        .with_udt(msg_info)
    for _ in range(iterations):
        contributions = adjacency.join(ranks, num_partitions,
                                       name="pr.joined") \
            .flat_map(_contributions, name="pr.contribs",
                      udt_info=msg_info)
        summed = contributions.reduce_by_key(lambda a, b: a + b,
                                             num_partitions,
                                             name="pr.sumContribs")
        ranks = summed.map_values(
            lambda total, d=damping: (1.0 - d) + d * total,
            name="pr.newRanks").with_udt(msg_info)
    result = dict(ranks.collect())
    return AppRun.finish(ctx, result, adjacency)


def _contributions(record):
    _, (neighbors, rank) = record
    if not neighbors:
        return
    share = rank / len(neighbors)
    for neighbor in neighbors:
        yield neighbor, share
