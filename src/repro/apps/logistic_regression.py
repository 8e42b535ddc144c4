"""Logistic Regression — the caching-only application (§6.2, Fig. 9).

The running example of the paper (Fig. 1): parse the input once into
``LabeledPoint`` objects, ``cache()`` them, then iterate map+reduce over
the cached dataset to descend the gradient.  The cached points are
long-living; in Spark each is a three-object graph that every full
collection retraces in vain, while Deca refines ``LabeledPoint`` to an
SFST (the feature arrays all have the global dimension ``D``) and stores
the whole dataset as a few pages.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import exp
from operator import add, mul, neg, sub, truediv

from ..config import DecaConfig
from ..spark.rdd import UdtInfo
from .common import AppRun, make_context
from .udts import LR_STAGE, LabeledPoint

#: One training sample as the engine holds it: ``(label, features)``.
Sample = tuple[float, tuple[float, ...]]


def labeled_point_udt_info(dimensions: int) -> UdtInfo:
    """The Fig. 1 type model with the runtime dimension bound."""
    return UdtInfo(
        udt=LabeledPoint,
        entry_method=LR_STAGE,
        runtime_symbols={"D": dimensions},
    )


def run_logistic_regression(points: list[Sample],
                            config: DecaConfig | None = None,
                            iterations: int = 10,
                            num_partitions: int = 8,
                            profile: bool = False) -> AppRun:
    """Train a separating hyperplane; returns weights and run metrics."""
    if not points:
        raise ValueError("logistic regression needs a non-empty dataset")
    dimensions = len(points[0][1])
    ctx = make_context(config,
                       profile_prefix="cache:" if profile else None)
    info = labeled_point_udt_info(dimensions)
    cpu = ctx.config.cpu
    dim_cost = cpu.record_op_ms + cpu.arithmetic_per_dim_ms * dimensions

    raw = ctx.parallelize(points, num_partitions, name="lr.input")
    cached = raw.map(lambda rec: rec, name="lr.points",
                     udt_info=info).cache()

    weights = [2.0 * ((i * 2654435761 % 97) / 97.0) - 1.0
               for i in range(dimensions)]
    count = float(len(points))
    for _ in range(iterations):
        frozen = tuple(weights)

        # C-level map/operator kernels, not generator expressions.  Each
        # float operation is the per-element form's, on the same operands
        # in the same order (the margin still goes through builtins.sum),
        # and the two conditionals are max(-30.0, min(30.0, m)) exactly
        # (NaN -> 30.0, -0.0 kept), so the weights are bit-identical to
        # the generator form tests/test_prop_app_kernels.py keeps as its
        # oracle.
        def gradient(point, w=frozen):
            label, features = point
            margin = -label * sum(map(mul, w, features))
            margin = margin if margin < 30.0 else 30.0
            margin = margin if margin > -30.0 else -30.0
            factor = (1.0 / (1.0 + exp(margin)) - 1.0) * label
            return tuple(map(mul, features, repeat(factor)))

        # ``reduce(combine, map(gradient, records))`` over a run of cached
        # columns (the labels, then one column per feature), for the
        # engine to call on decomposed pages.  Every float operation is
        # one of the two above, on the same operands in the same order:
        # each margin is still one builtins.sum over its record's
        # products, each step after it is one C-level pass over the run,
        # and each dimension folds onto *acc* left to right as
        # ``combine`` folds the records' gradients.
        def fold(acc, columns, w=frozen):
            labels, features = columns[0], columns[1:]
            margins = list(map(mul, map(neg, labels), map(
                sum, map(map, repeat(mul), repeat(w), zip(*features)))))
            # A margin strictly inside (-30, 30) is its own clamp (a NaN
            # is not inside); otherwise clamp each as gradient does.
            if not (all(map((30.0).__gt__, margins))
                    and all(map((-30.0).__lt__, margins))):
                margins = list(map(max, repeat(-30.0),
                                   map(min, repeat(30.0), margins)))
            factors = list(map(mul, map(sub, map(truediv, repeat(1.0), map(
                add, repeat(1.0), map(exp, margins))), repeat(1.0)), labels))
            if acc is None:
                return tuple(reduce(add, map(mul, column, factors))
                             for column in features)
            return tuple(reduce(add, map(mul, column, factors), start)
                         for column, start in zip(features, acc))

        total = cached.map(gradient, name="lr.gradient",
                           record_cost_ms=dim_cost) \
                      .reduce(lambda a, b: tuple(map(add, a, b)),
                              column_fold=fold)
        weights = [w - g / count for w, g in zip(weights, total)]

    return AppRun.finish(ctx, tuple(weights), cached)
