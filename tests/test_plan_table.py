"""The plan table every app's containers get, pinned in every mode.

Each case runs one app at seed 1 on the sim backend and lists the plan
of every cache dataset and shuffle it materializes, in the order the
plans are made, as ``(target, udt, strategy, decomposed, reason,
repr(schema))``: the Spark baselines' object and Kryo plans next to the
Deca optimizer's, so moving a plan from one emitter to another cannot
change a field, a reason or the creation order unseen.  The SQL suite's
two relations are pinned by the layout they are cached in and the
reason their plan gives.
"""

import pytest

from repro.apps.connected_components import run_connected_components
from repro.apps.kmeans import run_kmeans
from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.apps.sql_queries import make_suite_engine, run_query1, run_query2
from repro.apps.wordcount import run_wordcount
from repro.config import DecaConfig, ExecutionMode
from repro.core.optimizer import plan_sql_layout
from repro.data import (
    clustered_points,
    labeled_points,
    power_law_graph,
    random_words,
    rankings_table,
    uservisits_table,
)
from repro.spark.context import DecaContext

APPS = {
    "lr": lambda config: run_logistic_regression(
        labeled_points(200, 4, seed=1), config, iterations=2,
        num_partitions=2),
    "kmeans": lambda config: run_kmeans(
        clustered_points(200, 3, 3, seed=1), k=3, config=config,
        iterations=2, num_partitions=2),
    "wc": lambda config: run_wordcount(
        random_words(500, 50, seed=1), config, num_partitions=2),
    "pr": lambda config: run_pagerank(
        power_law_graph(40, 160, seed=1), config, iterations=2,
        num_partitions=2),
    "cc": lambda config: run_connected_components(
        power_law_graph(40, 160, seed=1), config, iterations=2,
        num_partitions=2),
    "q1": lambda config: run_query1(
        rankings_table(100, seed=1), config, num_partitions=2),
    "q2": lambda config: run_query2(
        uservisits_table(100, seed=1), config, num_partitions=2),
}

MODES = ("spark", "spark-ser", "deca")


def plan_table(monkeypatch, app: str, mode: str) -> list[tuple]:
    """Run *app* in *mode*; every plan the context hands out, in the
    order it is first handed out (plans are made on first request)."""
    seen: dict[int, tuple] = {}

    def recording(method):
        def plan(self, subject):
            made = method(self, subject)
            seen.setdefault(id(made), (
                made.target, made.udt, made.strategy.value,
                made.decomposed, made.reason, repr(made.schema)))
            return made
        return plan

    monkeypatch.setattr(DecaContext, "plan_cache",
                        recording(DecaContext.plan_cache))
    monkeypatch.setattr(DecaContext, "plan_shuffle",
                        recording(DecaContext.plan_shuffle))
    APPS[app](DecaConfig(mode=ExecutionMode(mode)))
    return list(seen.values())


@pytest.mark.parametrize("app, mode", [(a, m) for a in APPS for m in MODES],
                         ids=[f"{a}-{m}" for a in APPS for m in MODES])
def test_plan_table_is_pinned(monkeypatch, app, mode):
    assert plan_table(monkeypatch, app, mode) == PINNED[app, mode]


def test_suite_relation_plans_are_pinned():
    engine = make_suite_engine(rankings_table(50, seed=1),
                               uservisits_table(50, seed=1))
    with engine:
        got = {name: (engine.layout_of(name),
                      plan_sql_layout(engine._tables[name][0]).reason)
               for name in ("rankings", "uservisits")}
    assert got == SQL_PINNED


# The reasons the plans give.
SPARK_CACHE = 'spark caches object graphs'
KRYO = 'kryo-serialized in the RFST layout'
PAGES = 'decomposed into cache-block page groups'
SPARK_SHUFFLE = 'spark shuffles object graphs'
SER_SHUFFLE = 'spark-ser shuffles object graphs'
REUSE_ELIDED = ('decomposed into shuffle-buffer page groups with value '
                'segment reuse, pointer array elided')
REUSE = 'decomposed into shuffle-buffer page groups with value segment reuse'
ELIDED = 'decomposed into shuffle-buffer page groups, pointer array elided'
NO_UDT = 'no UDT declared for the shuffled records'

#: (app, mode) -> the plan table, taken when the context still made
#: the Spark baselines' plans itself.
PINNED = {
    ('lr', 'spark'): [
        ('cache:lr.points', 'LabeledPoint', 'objects', False, SPARK_CACHE,
         'None'),
    ],
    ('lr', 'spark-ser'): [
        ('cache:lr.points', 'LabeledPoint', 'serialized', False, KRYO,
         "RecordSchema(LabeledPoint, fields=['label', 'features'])"),
    ],
    ('lr', 'deca'): [
        ('cache:lr.points', 'LabeledPoint', 'deca-pages', True, PAGES,
         "RecordSchema(LabeledPoint, fields=['label', 'features'])"),
    ],
    ('kmeans', 'spark'): [
        ('shuffle:0:km.assign', 'ClusterStat', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('cache:km.points', 'LabeledPoint', 'objects', False, SPARK_CACHE,
         'None'),
        ('shuffle:1:km.assign', 'ClusterStat', 'objects', False, SPARK_SHUFFLE,
         'None'),
    ],
    ('kmeans', 'spark-ser'): [
        ('shuffle:0:km.assign', 'ClusterStat', 'objects', False, SER_SHUFFLE,
         'None'),
        ('cache:km.points', 'LabeledPoint', 'serialized', False, KRYO,
         "RecordSchema(LabeledPoint, fields=['label', 'features'])"),
        ('shuffle:1:km.assign', 'ClusterStat', 'objects', False, SER_SHUFFLE,
         'None'),
    ],
    ('kmeans', 'deca'): [
        ('shuffle:0:km.assign', 'ClusterStat', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(ClusterStat, fields=['cluster', 'stat'])"),
        ('cache:km.points', 'LabeledPoint', 'deca-pages', True, PAGES,
         "RecordSchema(LabeledPoint, fields=['label', 'features'])"),
        ('shuffle:1:km.assign', 'ClusterStat', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(ClusterStat, fields=['cluster', 'stat'])"),
    ],
    ('wc', 'spark'): [
        ('shuffle:0:wc.pairs', 'Tuple2', 'objects', False, SPARK_SHUFFLE,
         'None'),
    ],
    ('wc', 'spark-ser'): [
        ('shuffle:0:wc.pairs', 'Tuple2', 'objects', False, SER_SHUFFLE,
         'None'),
    ],
    ('wc', 'deca'): [
        ('shuffle:0:wc.pairs', 'Tuple2', 'deca-pages', True, REUSE,
         "RecordSchema(Tuple2, fields=['word', 'count'])"),
    ],
    ('pr', 'spark'): [
        ('shuffle:0:pr.edges', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:1:pr.contribs', 'RankMessage', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('cache:pr.adjacency', 'AdjacencyList', 'objects', False, SPARK_CACHE,
         'None'),
        ('shuffle:2:pr.contribs', 'RankMessage', 'objects', False, SPARK_SHUFFLE,
         'None'),
    ],
    ('pr', 'spark-ser'): [
        ('shuffle:0:pr.edges', 'Edge', 'objects', False, SER_SHUFFLE, 'None'),
        ('shuffle:1:pr.contribs', 'RankMessage', 'objects', False, SER_SHUFFLE,
         'None'),
        ('cache:pr.adjacency', 'AdjacencyList', 'serialized', False, KRYO,
         "RecordSchema(AdjacencyList, fields=['vid', 'neighbors'])"),
        ('shuffle:2:pr.contribs', 'RankMessage', 'objects', False, SER_SHUFFLE,
         'None'),
    ],
    ('pr', 'deca'): [
        ('shuffle:0:pr.edges', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:1:pr.contribs', 'RankMessage', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(RankMessage, fields=['target', 'rank'])"),
        ('cache:pr.adjacency', 'AdjacencyList', 'deca-pages', True, PAGES,
         "RecordSchema(AdjacencyList, fields=['vid', 'neighbors'])"),
        ('shuffle:2:pr.contribs', 'RankMessage', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(RankMessage, fields=['target', 'rank'])"),
    ],
    ('cc', 'spark'): [
        ('shuffle:0:cc.edges', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:3:cc.initLabels', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('cache:cc.adjacency', 'AdjacencyList', 'objects', False, SPARK_CACHE,
         'None'),
        ('shuffle:1:cc.initLabels', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:2:cc.messages', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:6:cc.newLabels', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:4:cc.newLabels', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
        ('shuffle:5:cc.messages', 'Edge', 'objects', False, SPARK_SHUFFLE,
         'None'),
    ],
    ('cc', 'spark-ser'): [
        ('shuffle:0:cc.edges', 'Edge', 'objects', False, SER_SHUFFLE, 'None'),
        ('shuffle:3:cc.initLabels', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
        ('cache:cc.adjacency', 'AdjacencyList', 'serialized', False, KRYO,
         "RecordSchema(AdjacencyList, fields=['vid', 'neighbors'])"),
        ('shuffle:1:cc.initLabels', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
        ('shuffle:2:cc.messages', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
        ('shuffle:6:cc.newLabels', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
        ('shuffle:4:cc.newLabels', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
        ('shuffle:5:cc.messages', 'Edge', 'objects', False, SER_SHUFFLE,
         'None'),
    ],
    ('cc', 'deca'): [
        ('shuffle:0:cc.edges', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:3:cc.initLabels', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('cache:cc.adjacency', 'AdjacencyList', 'deca-pages', True, PAGES,
         "RecordSchema(AdjacencyList, fields=['vid', 'neighbors'])"),
        ('shuffle:1:cc.initLabels', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:2:cc.messages', 'Edge', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:6:cc.newLabels', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:4:cc.newLabels', 'Edge', 'deca-pages', True, ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
        ('shuffle:5:cc.messages', 'Edge', 'deca-pages', True, REUSE_ELIDED,
         "RecordSchema(Edge, fields=['src', 'dst'])"),
    ],
    ('q1', 'spark'): [
        ('cache:q1.rows', 'Ranking', 'objects', False, SPARK_CACHE, 'None'),
    ],
    ('q1', 'spark-ser'): [
        ('cache:q1.rows', 'Ranking', 'serialized', False, KRYO,
         "RecordSchema(Ranking, fields=['pageURL', 'pageRank', 'avgDuration'])"),
    ],
    ('q1', 'deca'): [
        ('cache:q1.rows', 'Ranking', 'deca-pages', True, PAGES,
         "RecordSchema(Ranking, fields=['pageURL', 'pageRank', 'avgDuration'])"),
    ],
    ('q2', 'spark'): [
        ('shuffle:0:q2.keyed', None, 'objects', False, SPARK_SHUFFLE, 'None'),
        ('cache:q2.rows', 'UserVisit', 'objects', False, SPARK_CACHE, 'None'),
    ],
    ('q2', 'spark-ser'): [
        ('shuffle:0:q2.keyed', None, 'objects', False, SER_SHUFFLE, 'None'),
        ('cache:q2.rows', 'UserVisit', 'serialized', False, KRYO,
         "RecordSchema(UserVisit, fields=['sourceIP', 'destURL', 'visitDate', 'adRevenue', 'userAgent', 'countryCode', 'languageCode', 'searchWord', 'duration'])"),
    ],
    ('q2', 'deca'): [
        ('shuffle:0:q2.keyed', None, 'objects', False, NO_UDT, 'None'),
        ('cache:q2.rows', 'UserVisit', 'deca-pages', True, PAGES,
         "RecordSchema(UserVisit, fields=['sourceIP', 'destURL', 'visitDate', 'adRevenue', 'userAgent', 'countryCode', 'languageCode', 'searchWord', 'duration'])"),
    ],
}

COLUMNS = 'fixed-schema relation; one page run per column'
#: relation -> (the layout it is cached in, its plan's reason).
SQL_PINNED = {'rankings': ('columnar', COLUMNS),
              'uservisits': ('columnar', COLUMNS)}
