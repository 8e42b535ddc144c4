"""Integration tests: the benchmark applications end-to-end, all modes.

Every application must produce *identical results* under Spark, SparkSer
and Deca — the transformation is transparent to the program (§1) — and the
results must match an independent plain-Python implementation.
"""

import math
from collections import Counter

import pytest

from repro.config import DecaConfig, ExecutionMode, MB
from repro.data import (
    clustered_points,
    labeled_points,
    power_law_graph,
    random_words,
    rankings_table,
    uservisits_table,
)
from repro.apps.wordcount import run_wordcount
from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.kmeans import run_kmeans
from repro.apps.pagerank import run_pagerank
from repro.apps.connected_components import run_connected_components
from repro.apps.sql_queries import (
    run_query1,
    run_query1_sparksql,
    run_query2,
    run_query2_sparksql,
)
from repro.exec.shm import shm_available
from repro.spark.executor import Executor


def cfg(mode, heap_mb=32):
    return DecaConfig(mode=mode, heap_bytes=heap_mb * MB,
                      num_executors=2, tasks_per_executor=2)


MODES = list(ExecutionMode)


class TestWordCount:
    words = random_words(3000, 200)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_counts_match_counter(self, mode):
        run = run_wordcount(self.words, cfg(mode), num_partitions=4)
        assert run.result == Counter(self.words)

    def test_modes_agree(self):
        results = [run_wordcount(self.words, cfg(m), 4).result
                   for m in MODES]
        assert results[0] == results[1] == results[2]


class TestLogisticRegression:
    points = labeled_points(1500, dimensions=8)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_learns_a_separating_direction(self, mode):
        run = run_logistic_regression(self.points, cfg(mode),
                                      iterations=6, num_partitions=4)
        weights = run.result
        correct = 0
        for label, features in self.points:
            margin = sum(w * x for w, x in zip(weights, features))
            predicted = 1.0 if margin > 0 else 0.0
            correct += predicted == label
        assert correct / len(self.points) > 0.9

    def test_modes_produce_identical_weights(self):
        weights = [run_logistic_regression(self.points, cfg(m),
                                           iterations=3,
                                           num_partitions=4).result
                   for m in MODES]
        for a, b in zip(weights[0], weights[1]):
            assert math.isclose(a, b, rel_tol=1e-9)
        for a, b in zip(weights[0], weights[2]):
            assert math.isclose(a, b, rel_tol=1e-9)

    def test_cached_bytes_reported(self):
        run = run_logistic_regression(self.points, cfg(ExecutionMode.DECA),
                                      iterations=2, num_partitions=4)
        assert run.cached_bytes > 0


class TestKMeans:
    points = clustered_points(800, dimensions=6, clusters=4)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_centers_converge_near_clusters(self, mode):
        run = run_kmeans(self.points, k=4, config=cfg(mode),
                         iterations=6, num_partitions=4)
        centers = run.result
        assert len(centers) == 4
        # Every point should be within a few units of some center.
        for point in self.points[:100]:
            best = min(
                math.dist(point, center) for center in centers)
            assert best < 6.0

    def test_modes_agree(self):
        results = [run_kmeans(self.points, 4, cfg(m), iterations=3,
                              num_partitions=4).result for m in MODES]
        for c0, c1 in zip(results[0], results[1]):
            assert all(math.isclose(a, b, rel_tol=1e-9)
                       for a, b in zip(c0, c1))


class TestPageRank:
    edges = power_law_graph(300, 2400)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_ranks_sum_is_sane(self, mode):
        run = run_pagerank(self.edges, cfg(mode), iterations=5,
                           num_partitions=4)
        ranks = run.result
        assert all(rank > 0 for rank in ranks.values())
        # Damping 0.85: total rank stays near the vertex count.
        total = sum(ranks.values())
        assert 0.4 * 300 < total < 1.6 * 300

    def test_hub_outranks_average(self):
        run = run_pagerank(self.edges, cfg(ExecutionMode.SPARK),
                           iterations=5, num_partitions=4)
        ranks = run.result
        in_degree = Counter(dst for _, dst in self.edges)
        hub = in_degree.most_common(1)[0][0]
        mean = sum(ranks.values()) / len(ranks)
        assert ranks[hub] > 3 * mean

    def test_modes_agree(self):
        results = [run_pagerank(self.edges, cfg(m), iterations=3,
                                num_partitions=4).result for m in MODES]
        for vertex, rank in results[0].items():
            assert math.isclose(rank, results[1][vertex], rel_tol=1e-9)
            assert math.isclose(rank, results[2][vertex], rel_tol=1e-9)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_one_shuffle_per_iteration(self, mode):
        """groupByKey once, one reduceByKey per iteration, the result
        stage: the join reads the cached adjacency lists and the ranks
        where they are (§6.3)."""
        run = run_pagerank(self.edges, cfg(mode), iterations=4,
                           num_partitions=4)
        names = [s.name for job in run.metrics.jobs for s in job.stages]
        assert names == (["shuffle-map:pr.edges"]
                         + ["shuffle-map:pr.contribs"] * 4
                         + ["result:pr.newRanks"])

    def test_deca_iterate_stages_allocate_no_udf_temporaries(
            self, monkeypatch):
        """``pr.contribs`` sits on a join with two narrow parents, both
        decomposed (cached pages, a decomposed shuffle): Deca rewrites
        its loop, so no per-record object graph is charged.  Spark mode
        is the control that the probe sees allocations at all."""
        alloc_temp = Executor.alloc_temp
        allocations = Counter()

        def spy(executor, objects, nbytes):
            if objects > 0 or nbytes > 0:
                allocations[executor._current_task.metrics.stage_id] += 1
            alloc_temp(executor, objects, nbytes)

        monkeypatch.setattr(Executor, "alloc_temp", spy)
        for mode in (ExecutionMode.SPARK, ExecutionMode.DECA):
            allocations.clear()
            run = run_pagerank(self.edges, cfg(mode), iterations=3,
                               num_partitions=4)
            iterate = [s.stage_id for s in run.metrics.jobs[0].stages
                       if s.name == "shuffle-map:pr.contribs"]
            assert len(iterate) == 3
            per_stage = [allocations[stage_id] for stage_id in iterate]
            if mode is ExecutionMode.SPARK:
                assert all(count > 0 for count in per_stage)
            else:
                assert per_stage == [0, 0, 0]


class TestConnectedComponents:
    def test_three_shuffles_per_iteration(self):
        """The cached adjacency side and the ``minLabel`` side are read
        in place; ``labels`` loses its partitioner through ``map`` and is
        shuffled into both joins (docs/paper_mapping.md, "Partitioner-aware
        joins", records why the program is left alone)."""
        edges = [(i, i + 1) for i in range(30)]
        run = run_connected_components(edges, cfg(ExecutionMode.SPARK),
                                       iterations=2, num_partitions=4)
        names = Counter(s.name for job in run.metrics.jobs
                        for s in job.stages)
        assert names == {
            "shuffle-map:cc.edges": 1,
            # labels into cc.joined and into cc.update, per iteration
            "shuffle-map:cc.initLabels": 2, "shuffle-map:cc.newLabels": 2,
            "shuffle-map:cc.messages": 2,
            "result:cc.newLabels": 1}

    def test_finds_true_components(self):
        # Two disjoint cliques plus a bridge-free singleton chain.
        edges = []
        for base in (0, 100):
            for i in range(base, base + 10):
                for j in range(i + 1, base + 10):
                    edges.append((i, j))
        run = run_connected_components(
            edges, cfg(ExecutionMode.SPARK), iterations=6,
            num_partitions=4)
        labels = run.result
        first = {labels[v] for v in range(0, 10)}
        second = {labels[v] for v in range(100, 110)}
        assert len(first) == 1
        assert len(second) == 1
        assert first != second

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_chain_collapses_to_minimum(self, mode):
        edges = [(i, i + 1) for i in range(30)]
        run = run_connected_components(edges, cfg(mode), iterations=40,
                                       num_partitions=4)
        assert set(run.result.values()) == {0}


class TestSqlQueries:
    rankings = rankings_table(800)
    visits = uservisits_table(1000)

    def expected_q1(self):
        return sorted((r[0], r[1]) for r in self.rankings if r[1] > 100)

    def expected_q2(self):
        sums: dict[str, float] = {}
        for row in self.visits:
            sums[row[0][:5]] = sums.get(row[0][:5], 0.0) + row[3]
        return sorted(sums.items())

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_query1_rdd(self, mode):
        run = run_query1(self.rankings, cfg(mode), num_partitions=4)
        assert sorted(run.result) == self.expected_q1()

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_query2_rdd(self, mode):
        run = run_query2(self.visits, cfg(mode), num_partitions=4)
        expected = self.expected_q2()
        assert len(run.result) == len(expected)
        for (key, total), (ekey, etotal) in zip(run.result, expected):
            assert key == ekey
            assert math.isclose(total, etotal, rel_tol=1e-9)

    def test_sparksql_agrees_with_rdd(self):
        q1 = run_query1_sparksql(self.rankings)
        assert sorted(q1.result) == self.expected_q1()
        q2 = run_query2_sparksql(self.visits)
        expected = self.expected_q2()
        for (key, total), (ekey, etotal) in zip(q2.result, expected):
            assert key == ekey
            assert math.isclose(total, etotal, rel_tol=1e-9)


#: U+1F600, outside the Basic Multilingual Plane: two UTF-16 code units.
ASTRAL = "\U0001F600"


class TestAstralText:
    """A string with an astral character goes through every layout: a
    ``char[]`` holds UTF-16 code units, so the character is a surrogate
    pair in the page, not one code point too wide for its 16-bit slot."""

    words = random_words(300, 30, seed=1) + [
        f"gr{ASTRAL}n", ASTRAL, f"gr{ASTRAL}n", "\ud800"]
    rankings = [(f"url{ASTRAL}{i}", 50 + 7 * i, i) for i in range(40)] \
        + rankings_table(100, seed=1)
    visits = [(f"1{ASTRAL}.{i % 3}.0.1", f"url{ASTRAL}", 20090101,
               0.5 * i, "Mozilla", "DNK", "da", f"w{ASTRAL}", i)
              for i in range(40)] + uservisits_table(100, seed=1)

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_wordcount_deca_counts_match_spark(self, backend):
        if backend == "mp" and not shm_available():
            pytest.skip("platform has no shared memory")
        want = run_wordcount(self.words, cfg(ExecutionMode.SPARK),
                             num_partitions=4).result
        config = cfg(ExecutionMode.DECA).with_options(
            execution_backend=backend)
        got = run_wordcount(self.words, config, num_partitions=4).result
        assert got == want
        assert want[f"gr{ASTRAL}n"] == 2 and want[ASTRAL] == 1

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK_SER,
                                      ExecutionMode.DECA],
                             ids=lambda m: m.value)
    def test_query1_rows_match_spark(self, mode):
        want = run_query1(self.rankings, cfg(ExecutionMode.SPARK),
                          num_partitions=4).result
        got = run_query1(self.rankings, cfg(mode), num_partitions=4).result
        assert got == want
        assert any(ASTRAL in url for url, _ in want)

    @pytest.mark.parametrize("mode", [ExecutionMode.SPARK_SER,
                                      ExecutionMode.DECA],
                             ids=lambda m: m.value)
    def test_query2_rows_match_spark(self, mode):
        want = run_query2(self.visits, cfg(ExecutionMode.SPARK),
                          num_partitions=4).result
        got = run_query2(self.visits, cfg(mode), num_partitions=4).result
        assert got == want
        assert any(ASTRAL in key for key, _ in want)
