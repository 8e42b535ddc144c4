"""KMeans — caching plus aggregated shuffling (§6.2, Table 1).

Like LR, the training points are parsed once and cached; unlike LR, every
iteration is a two-stage job — the assignment map emits
``(cluster, (vector_sum, count))`` pairs into a hash-based shuffle buffer
with eager aggregation, and the reduce stage recomputes the centers.  Both
the cache decomposition and the shuffle segment reuse therefore apply.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub, truediv

from ..config import DecaConfig
from ..spark.rdd import UdtInfo
from .common import AppRun, make_context
from .logistic_regression import labeled_point_udt_info
from .udts import CLUSTER_STAT_OBJECTS, ClusterStat, KM_ASSIGN_STAGE

Point = tuple[float, ...]


def cluster_stat_udt_info(dimensions: int) -> UdtInfo:
    """The ``(cluster, (vector_sum, count))`` aggregation record.

    All sum arrays share the dataset dimension, so the record is an SFST
    — the eager-aggregation buffer decomposes with in-place segment reuse
    on every merge (§4.3.2).  Spark's records are measured as the
    ``Tuple2`` graph it allocates, whose value is the same pair.
    """
    return UdtInfo(
        udt=ClusterStat,
        entry_method=KM_ASSIGN_STAGE,
        runtime_symbols={"D": dimensions},
        object_model=CLUSTER_STAT_OBJECTS,
    )


#: KMeans reuses the LR vector model: a point is cached as the
#: ``LabeledPoint`` ``(0.0, point)``.
point_udt_info = labeled_point_udt_info


def _closest(point: Point, centers: list[Point]) -> int:
    # An explicit argmin: ``min(range(k), key=...)`` would pick a center
    # whose distance is NaN when it comes first; this loop never does.
    best_index = 0
    best_distance = float("inf")
    for index, center in enumerate(centers):
        diff = list(map(sub, point, center))
        distance = sum(map(mul, diff, diff))
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return best_index


def _center(vector_sum: Point, count: int) -> Point:
    return tuple(map(truediv, vector_sum, repeat(count)))


def run_kmeans(points: list[Point], k: int = 8,
               config: DecaConfig | None = None,
               iterations: int = 10,
               num_partitions: int = 8) -> AppRun:
    """Cluster *points* into *k* centers; returns centers and metrics."""
    if not points:
        raise ValueError("kmeans needs a non-empty dataset")
    if k < 1:
        raise ValueError("k must be >= 1")
    dimensions = len(points[0])
    ctx = make_context(config)
    info = point_udt_info(dimensions)
    cpu = ctx.config.cpu
    # Distance computation vectorizes over dimensions; the k-way argmin
    # adds comparisons, not full passes.
    assign_cost = (cpu.record_op_ms
                   + cpu.arithmetic_per_dim_ms * (dimensions + k))

    raw = ctx.parallelize(points, num_partitions, name="km.input")
    cached = raw.map(lambda p: (0.0, p), name="km.points",
                     udt_info=info).cache()
    stat_info = cluster_stat_udt_info(dimensions)

    centers = [points[(i * 7919) % len(points)] for i in range(k)]
    for _ in range(iterations):
        # A tuple, not a list: the closure analyzer (DECA206) flags
        # mutable default captures — a list here would be shared state a
        # retried task could observe mid-update.
        frozen = tuple(centers)

        def assign(labeled, c=frozen):
            point = labeled[1]
            return _closest(point, c), (point, 1)

        def merge(a, b):
            (sum_a, count_a), (sum_b, count_b) = a, b
            return tuple(map(add, sum_a, sum_b)), count_a + count_b

        sums = cached.map(assign, name="km.assign",
                          record_cost_ms=assign_cost,
                          udt_info=stat_info) \
                     .reduce_by_key(merge, num_partitions,
                                    name="km.update") \
                     .collect()
        new_centers = list(centers)
        for index, (vector_sum, count) in sums:
            new_centers[index] = _center(vector_sum, count)
        centers = new_centers

    return AppRun.finish(ctx, centers, cached)
