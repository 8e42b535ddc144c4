"""Tests for the exception hierarchy and the app UDT models."""

import pytest

from repro import errors
from repro.analysis import (
    CallGraph,
    GlobalClassifier,
    SizeType,
    classify_locally,
)
from repro.apps.udts import (
    RANKINGS_SCAN,
    RankMessage,
    Ranking,
    USERVISITS_SCAN,
    UserVisit,
)
from repro.apps.kmeans import cluster_stat_udt_info
from repro.apps.sql_queries import ranking_udt_info, uservisit_udt_info


class TestErrorHierarchy:
    def test_everything_derives_from_deca_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.DecaError), name

    def test_specific_parents(self):
        assert issubclass(errors.OutOfMemoryError, errors.HeapError)
        assert issubclass(errors.PageOverflowError, errors.PageError)
        assert issubclass(errors.ShuffleError, errors.ExecutionError)
        assert issubclass(errors.SchemaError, errors.SqlError)
        assert issubclass(errors.TypeGraphError, errors.AnalysisError)

    def test_catch_all(self):
        with pytest.raises(errors.DecaError):
            raise errors.PageReclaimedError("gone")


class TestSqlRowModels:
    def test_ranking_row_is_rfst(self):
        assert classify_locally(Ranking) is SizeType.RUNTIME_FIXED
        cg = CallGraph.build(RANKINGS_SCAN, known_types=(Ranking,))
        assert GlobalClassifier(cg).classify(Ranking) \
            is SizeType.RUNTIME_FIXED

    def test_uservisit_row_is_rfst(self):
        cg = CallGraph.build(USERVISITS_SCAN, known_types=(UserVisit,))
        assert GlobalClassifier(cg).classify(UserVisit) \
            is SizeType.RUNTIME_FIXED
        assert len(UserVisit.fields) == 9

    def test_ranking_udt_info_roundtrip(self):
        info = ranking_udt_info()
        row = ("url00000001.example.com/page", 42, 17)
        assert info.from_schema_value(info.to_schema_value(row)) == row

    def test_uservisit_udt_info_roundtrip(self):
        info = uservisit_udt_info()
        row = ("101.2.3.4", "url1.example.com", 20090101, 3.5,
               "Mozilla/5.0", "DNK", "da", "vldb", 60)
        assert info.from_schema_value(info.to_schema_value(row)) == row


class TestGraphAndKMeansModels:
    def test_rank_message_is_sfst(self):
        assert classify_locally(RankMessage) is SizeType.STATIC_FIXED

    def test_cluster_stat_decomposes_with_dimension(self):
        info = cluster_stat_udt_info(6)
        cg = info.callgraph()
        assert cg is not None
        classifier = GlobalClassifier(cg)
        assert classifier.classify(info.udt) is SizeType.STATIC_FIXED

    def test_cluster_stat_object_model_counts_wrappers(self):
        """The runtime Tuple2 graph has more objects than the flattened
        logical record — that difference drives Spark's churn."""
        info = cluster_stat_udt_info(6)
        record = (2, ((1.0,) * 6, 5))
        footprint = info.measure(record)
        assert footprint.objects >= 6  # 2 tuples + 2 boxes + DV + array

    def test_cluster_stat_roundtrip(self):
        info = cluster_stat_udt_info(3)
        record = (1, ((1.0, 2.0, 3.0), 7))
        assert info.from_schema_value(info.to_schema_value(record)) \
            == record
