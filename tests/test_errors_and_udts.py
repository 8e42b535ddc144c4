"""Tests for the exception hierarchy and the app UDT models."""

import struct

import pytest

from repro import errors
from repro.analysis import (
    CallGraph,
    GlobalClassifier,
    SizeType,
    classify_locally,
)
from repro.apps.udts import (
    DOUBLE_ARRAY,
    RANKINGS_SCAN,
    RankMessage,
    Ranking,
    USERVISITS_SCAN,
    UserVisit,
)
from repro.apps.kmeans import cluster_stat_udt_info
from repro.apps.sql_queries import ranking_udt_info, uservisit_udt_info
from repro.memory.layout import build_schema


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
        """A row is its ``Ranking`` value: the layout packs it as is."""
        schema = build_schema(ranking_udt_info().udt, SizeType.RUNTIME_FIXED)
        row = ("url00000001.example.com/page", 42, 17)
        assert schema.unpack(schema.pack(row)) == row

    def test_uservisit_udt_info_roundtrip(self):
        schema = build_schema(uservisit_udt_info().udt,
                              SizeType.RUNTIME_FIXED)
        row = ("101.2.3.4", "url1.example.com", 20090101, 3.5,
               "Mozilla/5.0", "DNK", "da", "vldb", 60)
        assert schema.unpack(schema.pack(row)) == row


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
        """``(cluster, (sum, count))`` is the nested ``ClusterStat``'s
        value, flat in the page: ``cluster``, the sums, ``count``."""
        info = cluster_stat_udt_info(3)
        classifier = GlobalClassifier(info.callgraph())
        schema = build_schema(info.udt, classifier.classify(info.udt),
                              fixed_lengths={id(DOUBLE_ARRAY): 3})
        record = (1, ((1.0, 2.0, 3.0), 7))
        packed = schema.pack(record)
        assert packed == struct.pack("<i3di", 1, 1.0, 2.0, 3.0, 7)
        assert schema.unpack(packed) == record
