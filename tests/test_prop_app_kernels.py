"""The apps' C-level ``map``/``operator`` kernels against their
per-element generator forms.

LR's gradient and combiner and KMeans's assignment, merge and center
update run as ``map(mul, ...)`` / ``tuple(map(add, ...))`` kernels, and
a ``char[]`` is packed as a ``str``'s UTF-16 code units by one
``str.encode``.  Each float operation is the one the generator form made, on
the same operands and in the same order, so the results must match to
the bit: equality is by ``float.hex``, with a NaN only required at the
same position (its payload is not part of the contract).  The oracles
below are the generator forms the kernels replaced; the apps' own UDFs
are captured from a tiny run, so what is checked is what the apps ship.
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.common import make_context
from repro.apps.kmeans import (
    _center,
    _closest,
    cluster_stat_udt_info,
    point_udt_info,
    run_kmeans,
)
from repro.apps.logistic_regression import (
    labeled_point_udt_info,
    run_logistic_regression,
)
from repro.apps.sql_queries import ranking_udt_info
from repro.apps.wordcount import wordcount_udt_info
from repro.analysis.size_type import SizeType
from repro.config import DecaConfig, ExecutionMode
from repro.memory.layout import build_schema
from repro.memory.page import PageGroup
from repro.spark.rdd import RDD, leaf_columns

PROFILE = settings(max_examples=60, deadline=None, derandomize=True)
DIM = 5


# -- the oracles: the generator forms the kernels replaced --------------------
def oracle_gradient(point, w):
    label, features = point
    margin = sum(wi * x for wi, x in zip(w, features))
    margin = max(-30.0, min(30.0, -label * margin))
    factor = (1.0 / (1.0 + math.exp(margin)) - 1.0) * label
    return tuple(x * factor for x in features)


def oracle_combine(a, b):
    return tuple(x + y for x, y in zip(a, b))


def oracle_closest(point, centers):
    best_index = 0
    best_distance = float("inf")
    for index, center in enumerate(centers):
        distance = sum((x - c) * (x - c) for x, c in zip(point, center))
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return best_index


def oracle_merge(a, b):
    (sum_a, count_a), (sum_b, count_b) = a, b
    return (tuple(x + y for x, y in zip(sum_a, sum_b)), count_a + count_b)


def oracle_center(vector_sum, count):
    return tuple(x / count for x in vector_sum)


def oracle_units(s):
    """*s* as UTF-16 code units, one character at a time."""
    units = []
    for c in s:
        code = ord(c)
        if code > 0xFFFF:
            code -= 0x10000
            units += (0xD800 + (code >> 10), 0xDC00 + (code & 0x3FF))
        else:
            units.append(code)
    return units


def oracle_string_bytes(s):
    """A length-prefixed ``char[]`` holding *s*, packed unit by unit."""
    units = oracle_units(s)
    return len(units).to_bytes(4, "little") + b"".join(
        unit.to_bytes(2, "little") for unit in units)


# -- equality to the bit ------------------------------------------------------
def assert_bits(got, want):
    got, want = tuple(got), tuple(want)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(y, float) and math.isnan(y):
            assert isinstance(x, float) and math.isnan(x)
        elif isinstance(y, float):
            assert isinstance(x, float) and x.hex() == y.hex()
        else:
            assert x == y and type(x) is type(y)


# -- the apps' own UDFs, captured from one tiny run ---------------------------
@functools.lru_cache(maxsize=None)
def app_udfs() -> dict[str, object]:
    """The functions the LR and KMeans runs hand to ``map`` / ``reduce``
    / ``reduce_by_key``, by RDD name (``reduce`` has none: "reduce", and
    its column fold is "column_fold")."""
    seen: dict[str, object] = {}
    real_map, real_reduce, real_rbk = RDD.map, RDD.reduce, RDD.reduce_by_key

    def map_(self, f, name=None, **kwargs):
        seen.setdefault(name, f)
        return real_map(self, f, name, **kwargs)

    def reduce_(self, f, **kwargs):
        seen.setdefault("reduce", f)
        if "column_fold" in kwargs:
            seen.setdefault("column_fold", kwargs["column_fold"])
        return real_reduce(self, f, **kwargs)

    def reduce_by_key_(self, merge, num_partitions=None, name=None):
        seen.setdefault(name, merge)
        return real_rbk(self, merge, num_partitions, name)

    RDD.map, RDD.reduce, RDD.reduce_by_key = map_, reduce_, reduce_by_key_
    try:
        run_logistic_regression([(1.0, (0.5,) * DIM), (-1.0, (0.25,) * DIM)],
                                iterations=1, num_partitions=1)
        run_kmeans([(0.0,) * DIM, (1.0,) * DIM], k=2, iterations=1,
                   num_partitions=1)
    finally:
        RDD.map, RDD.reduce, RDD.reduce_by_key = \
            real_map, real_reduce, real_rbk
    return seen


# -- strategies ---------------------------------------------------------------
EDGE = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
        2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
        30.0, -30.0]
floats = st.one_of(st.sampled_from(EDGE),
                   st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True),
                   st.floats(-100.0, 100.0))
vectors = st.lists(floats, min_size=DIM, max_size=DIM).map(tuple)
labels = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nan]),
                   floats)


class TestLogisticRegressionKernels:
    @PROFILE
    @given(label=labels, features=vectors, w=vectors)
    def test_gradient(self, label, features, w):
        gradient = app_udfs()["lr.gradient"]
        assert_bits(gradient((label, features), w=w),
                    oracle_gradient((label, features), w))

    @PROFILE
    @given(a=vectors, b=vectors)
    def test_combiner(self, a, b):
        assert_bits(app_udfs()["reduce"](a, b), oracle_combine(a, b))

    @pytest.mark.parametrize("margin", [math.nan, -0.0, 0.0, 30.0, -30.0,
                                        math.inf, -math.inf, 29.999])
    def test_clamp_edges_through_the_gradient(self, margin):
        # A margin of exactly *margin* (w = e1, features = margin * e1,
        # label -1): NaN clamps to 30.0 in both forms.
        features = (margin,) + (1.0,) * (DIM - 1)
        w = (1.0,) + (0.0,) * (DIM - 1)
        assert_bits(app_udfs()["lr.gradient"]((-1.0, features), w=w),
                    oracle_gradient((-1.0, features), w))


@functools.lru_cache(maxsize=None)
def lr_page_schema():
    """The layout a deca cache of DIM-dimensional ``LabeledPoint``s is
    packed in."""
    ctx = make_context(DecaConfig(mode=ExecutionMode.DECA))
    cached = ctx.parallelize([(1.0, (0.0,) * DIM)], 1).map(
        lambda rec: rec, udt_info=labeled_point_udt_info(DIM)).cache()
    schema = ctx.plan_cache(cached).schema
    ctx.finish()
    return schema


def column_runs(group, schema, run):
    """A page group's records as the engine hands them to a column fold:
    runs of at most *run* records (crossing pages), as leaf columns."""
    records = group.records(schema)
    while chunk := list(itertools.islice(records, run)):
        yield leaf_columns(chunk)


class TestLogisticRegressionColumnFold:
    """The column fold LR hands ``reduce``, over records packed into
    pages, against ``reduce(combine, map(gradient, records))``: runs of
    1 to 7 records (and runs longer than a page), pages of 1 to 9
    records."""

    @PROFILE
    @given(points=st.lists(st.tuples(labels, vectors), min_size=1,
                           max_size=40),
           w=vectors, per_page=st.integers(1, 9),
           run=st.sampled_from([1, 2, 3, 7, 256]))
    def test_fold_over_pages(self, points, w, per_page, run):
        schema = lr_page_schema()
        group = PageGroup("prop:lr", schema.fixed_size * per_page)
        group.append_records(schema, points)
        udfs = app_udfs()
        fold, acc = udfs["column_fold"], None
        for columns in column_runs(group, schema, run):
            acc = fold(acc, columns, w=w)
        gradient, combine = udfs["lr.gradient"], udfs["reduce"]
        assert_bits(acc, functools.reduce(
            combine, [gradient(point, w=w) for point in points]))

    @pytest.mark.parametrize("margin", [math.nan, -0.0, 0.0, 30.0, -30.0,
                                        30.5, -31.0, 1e300, math.inf,
                                        -math.inf, 29.999])
    def test_clamp_edges(self, margin):
        """One out-of-range margin sends the whole run through the
        clamp; the records beside it must not move."""
        points = [(-1.0, (margin,) + (1.0,) * (DIM - 1)),
                  (1.0, (0.5,) * DIM), (-0.0, (-0.0,) * DIM)]
        w = (1.0,) + (0.0,) * (DIM - 1)
        schema = lr_page_schema()
        group = PageGroup("edge:lr", schema.fixed_size * 2)
        group.append_records(schema, points)
        udfs = app_udfs()
        acc = None
        for columns in column_runs(group, schema, 256):
            acc = udfs["column_fold"](acc, columns, w=w)
        assert_bits(acc, functools.reduce(
            udfs["reduce"], [udfs["lr.gradient"](p, w=w) for p in points]))


class TestKMeansKernels:
    @PROFILE
    @given(point=vectors, centers=st.lists(vectors, min_size=1, max_size=4))
    def test_closest(self, point, centers):
        assert _closest(point, centers) == oracle_closest(point, centers)

    @PROFILE
    @given(a=vectors, b=vectors, counts=st.tuples(st.integers(1, 10 ** 6),
                                                   st.integers(1, 10 ** 6)))
    def test_merge(self, a, b, counts):
        merge = app_udfs()["km.update"]
        got = merge((a, counts[0]), (b, counts[1]))
        want = oracle_merge((a, counts[0]), (b, counts[1]))
        assert_bits(got[0], want[0])
        assert got[1] == want[1]

    @PROFILE
    @given(vector_sum=vectors, count=st.integers(1, 10 ** 9))
    def test_center(self, vector_sum, count):
        assert_bits(_center(vector_sum, count),
                    oracle_center(vector_sum, count))


class TestCharCodecs:
    """The apps' string fields through their derived layouts: a word or
    a URL is packed as its code units and read back as itself, astral
    characters and lone surrogates included."""

    @PROFILE
    @given(word=st.text(max_size=12), count=st.integers(0, 2 ** 31 - 1))
    def test_wordcount(self, word, count):
        schema = build_schema(wordcount_udt_info().udt,
                              SizeType.RUNTIME_FIXED)
        packed = schema.pack((word, count))
        assert packed == oracle_string_bytes(word) + count.to_bytes(4, "little")
        assert schema.size_of((word, count)) == len(packed)
        assert schema.unpack(packed) == (word, count)

    @PROFILE
    @given(text=st.text(max_size=12))
    def test_sql(self, text):
        schema = build_schema(ranking_udt_info().udt, SizeType.RUNTIME_FIXED)
        packed = schema.pack((text, 7, 9))
        assert packed.startswith(oracle_string_bytes(text))
        assert schema.unpack(packed) == (text, 7, 9)


# -- end to end: the same pipelines with the oracle UDFs ----------------------
def oracle_lr(points, config, iterations, num_partitions):
    """``run_logistic_regression``'s pipeline with the oracle UDFs."""
    dimensions = len(points[0][1])
    ctx = make_context(config)
    cached = ctx.parallelize(points, num_partitions) \
        .map(lambda rec: rec, udt_info=labeled_point_udt_info(dimensions)) \
        .cache()
    weights = [2.0 * ((i * 2654435761 % 97) / 97.0) - 1.0
               for i in range(dimensions)]
    count = float(len(points))
    for _ in range(iterations):
        frozen = tuple(weights)
        total = cached.map(lambda p, w=frozen: oracle_gradient(p, w)) \
                      .reduce(oracle_combine)
        weights = [w - g / count for w, g in zip(weights, total)]
    ctx.finish()
    return tuple(weights)


def oracle_kmeans(points, k, config, iterations, num_partitions):
    """``run_kmeans``'s pipeline with the oracle UDFs."""
    dimensions = len(points[0])
    ctx = make_context(config)
    cached = ctx.parallelize(points, num_partitions) \
        .map(lambda p: (0.0, p), udt_info=point_udt_info(dimensions)).cache()
    stat_info = cluster_stat_udt_info(dimensions)
    centers = [points[(i * 7919) % len(points)] for i in range(k)]
    for _ in range(iterations):
        frozen = tuple(centers)
        sums = cached.map(lambda lp, c=frozen:
                          (oracle_closest(lp[1], c), (lp[1], 1)),
                          udt_info=stat_info) \
                     .reduce_by_key(oracle_merge, num_partitions).collect()
        new_centers = list(centers)
        for index, (vector_sum, count) in sums:
            new_centers[index] = oracle_center(vector_sum, count)
        centers = new_centers
    ctx.finish()
    return centers


def _lr_points():
    return [(1.0 if i % 3 else -1.0,
             tuple(((i * 37 + d * 11) % 23) / 7.0 - 1.5 + (i % 5) * 1e-9
                   for d in range(DIM)))
            for i in range(160)]


def _km_points():
    return [tuple(((i * 13 + d * 29) % 31) / 3.0 + (i % 4) * 10.0
                  for d in range(DIM)) for i in range(160)]


CELLS = [pytest.param(DecaConfig(mode=mode), id=mode.value)
         for mode in ExecutionMode] + [
    pytest.param(DecaConfig(mode=ExecutionMode.DECA,
                            execution_backend="mp", mp_workers=2),
                 id="deca-mp")]


@pytest.mark.parametrize("config", CELLS)
def test_lr_matches_oracle_pipeline(config):
    points = _lr_points()
    got = run_logistic_regression(points, config, iterations=3,
                                  num_partitions=4).result
    assert_bits(got, oracle_lr(points, config, 3, 4))


@pytest.mark.parametrize("config", CELLS)
def test_kmeans_matches_oracle_pipeline(config):
    points = _km_points()
    got = run_kmeans(points, 3, config, iterations=3,
                     num_partitions=4).result
    want = oracle_kmeans(points, 3, config, 3, 4)
    assert len(got) == len(want)
    for center, expected in zip(got, want):
        assert_bits(center, expected)
