"""ConnectedComponent — mixed caching and shuffling (§6.3, Fig. 10(b)).

Label propagation over the (undirected) graph: adjacency lists are built
with ``groupByKey`` and cached; each iteration joins the cached adjacency
with the current labels, sends each vertex's label to its neighbors, and
keeps the minimum label seen.  Container behaviour matches PageRank —
the VST-in-buffer / RFST-in-cache pattern of Fig. 7(b).
"""

from __future__ import annotations

from ..config import DecaConfig
from ..spark.rdd import UdtInfo
from .common import AppRun, make_context
from .pagerank import build_adjacency
from .udts import make_graph_model


def label_message_udt_info() -> UdtInfo:
    """CC's ``(vertex: Long, label: Long)`` message — an SFST pair, so
    the min-label aggregation buffers decompose with segment reuse."""
    model = make_graph_model()
    return UdtInfo(
        udt=model.edge,  # two longs: structurally identical to Edge
        entry_method=model.iterate_stage_entry,
        constant_footprint=True,
    )

Edge = tuple[int, int]


def run_connected_components(edges: list[Edge],
                             config: DecaConfig | None = None,
                             iterations: int = 10,
                             num_partitions: int = 8) -> AppRun:
    """Propagate minimum labels; returns ``{vertex: component}``."""
    if not edges:
        raise ValueError("connected components needs edges")
    ctx = make_context(config)
    # Treat the graph as undirected: propagate along both directions.
    symmetric = edges + [(dst, src) for src, dst in edges]
    adjacency = build_adjacency(ctx, symmetric, num_partitions, name="cc")

    msg_info = label_message_udt_info()
    labels = adjacency.map(lambda kv: (kv[0], kv[0]),
                           name="cc.initLabels").with_udt(msg_info)
    for _ in range(iterations):
        messages = adjacency.join(labels, num_partitions,
                                  name="cc.joined") \
            .flat_map(_broadcast_label, name="cc.messages",
                      udt_info=msg_info)
        best = messages.reduce_by_key(min, num_partitions,
                                      name="cc.minLabel").with_udt(msg_info)
        # A vertex keeps its own label if no smaller one arrives.  ``map``
        # drops the partitioner, so ``labels`` is shuffled into both joins
        # (three shuffles per iteration; the adjacency and ``best`` sides
        # are read in place).  A partition-preserving update must come
        # with ``labels.cache()``/``unpersist()`` per iteration, or every
        # iteration recomputes all earlier joins (docs/paper_mapping.md).
        labels = labels.join(best, num_partitions, name="cc.update") \
            .map(lambda kv: (kv[0], min(kv[1][0], kv[1][1])),
                 name="cc.newLabels").with_udt(msg_info)
    result = dict(labels.collect())
    metrics = ctx.finish()
    return AppRun(result=result, metrics=metrics, ctx=ctx,
                  cached_bytes=ctx.cached_bytes_of(adjacency),
                  swapped_cache_bytes=ctx.swapped_bytes_of(adjacency))


def _broadcast_label(record):
    vertex, (neighbors, label) = record
    yield vertex, label
    for neighbor in neighbors:
        yield neighbor, label
