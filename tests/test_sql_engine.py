"""Tests for the mini columnar SQL engine (the Table 6 baseline)."""

import pytest

from repro.apps.sql_queries import make_suite_engine, suite_queries
from repro.config import DecaConfig, MB
from repro.core.optimizer import plan_sql_layout
from repro.data import rankings_table, uservisits_table
from repro.errors import SchemaError, SqlError
from repro.sql import (
    Column,
    ColumnType,
    ColumnarTable,
    SqlEngine,
    TableSchema,
    groupby_sum,
    select,
    top_k,
)
from repro.sql.schema import RANKINGS_SCHEMA, USERVISITS_SCHEMA

BLOBS_SCHEMA = TableSchema("blobs", [
    Column("key", ColumnType.INT),
    Column("payload", ColumnType.OPAQUE),
])


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INT),
                              Column("a", ColumnType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_row_validation(self):
        schema = TableSchema("t", [Column("a", ColumnType.INT),
                                   Column("s", ColumnType.STRING)])
        schema.validate_row((1, "x"))
        with pytest.raises(SchemaError):
            schema.validate_row((1,))
        with pytest.raises(SchemaError):
            schema.validate_row(("no", "x"))
        with pytest.raises(SchemaError):
            schema.validate_row((1, 2))

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            RANKINGS_SCHEMA.column_index("nope")


class TestColumnarTable:
    def test_roundtrip_rows(self):
        rows = rankings_table(50)
        table = ColumnarTable(RANKINGS_SCHEMA, rows)
        assert table.row_count == 50
        for i in (0, 17, 49):
            assert table.row(i) == rows[i]

    def test_string_prefix_access(self):
        rows = uservisits_table(20)
        table = ColumnarTable(USERVISITS_SCHEMA, rows)
        col = table.column("sourceIP")
        assert col.get_prefix(3, 5) == rows[3][0][:5]

    def test_memory_is_column_not_object_sized(self):
        """A columnar table is far smaller than row objects."""
        from repro.spark.measure import measure_generic
        rows = rankings_table(500)
        table = ColumnarTable(RANKINGS_SCHEMA, rows)
        object_bytes = sum(measure_generic(r).object_bytes for r in rows)
        assert table.memory_bytes < 0.6 * object_bytes

    def test_heap_registration_is_tiny(self):
        cfg = DecaConfig(heap_bytes=64 * MB)
        from repro.simtime import SimClock
        from repro.jvm import SimHeap
        heap = SimHeap(cfg, SimClock())
        table = ColumnarTable(RANKINGS_SCHEMA, rankings_table(1000),
                              heap=heap)
        # One heap object per column run: 1 for each fixed column, 2
        # (offsets + blob) for each string column.
        assert table.run_count == 4
        assert heap.live_objects == table.run_count

    def test_release_frees_heap(self):
        cfg = DecaConfig(heap_bytes=64 * MB)
        from repro.simtime import SimClock
        from repro.jvm import SimHeap
        heap = SimHeap(cfg, SimClock())
        table = ColumnarTable(RANKINGS_SCHEMA, rankings_table(100),
                              heap=heap)
        table.release()
        heap.full_gc()
        assert heap.live_objects == 0

    def test_out_of_range_row(self):
        table = ColumnarTable(RANKINGS_SCHEMA, rankings_table(5))
        with pytest.raises(SchemaError):
            table.row(5)


class TestQueries:
    def make_engine(self, rankings=200, visits=300):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(rankings))
        engine.register_table("uservisits", USERVISITS_SCHEMA,
                              uservisits_table(visits))
        return engine

    def test_query1_matches_python(self):
        engine = self.make_engine()
        rows = rankings_table(200)
        result = engine.run(select(["pageURL", "pageRank"], "rankings",
                                   where=("pageRank", ">", 100)))
        expected = sorted((r[0], r[1]) for r in rows if r[1] > 100)
        assert sorted(result.rows) == expected

    def test_query2_matches_python(self):
        engine = self.make_engine()
        rows = uservisits_table(300)
        result = engine.run(groupby_sum("uservisits", "sourceIP",
                                        "adRevenue", key_prefix=5))
        expected: dict[str, float] = {}
        for r in rows:
            expected[r[0][:5]] = expected.get(r[0][:5], 0.0) + r[3]
        assert len(result.rows) == len(expected)
        for key, total in result.rows:
            assert abs(total - expected[key]) < 1e-6

    def test_projection_without_filter(self):
        engine = self.make_engine(rankings=10)
        result = engine.run(select(["pageURL"], "rankings"))
        assert len(result.rows) == 10

    def test_gc_time_is_negligible(self):
        """Table 6: Spark SQL's GC time is near zero."""
        engine = self.make_engine(visits=2000)
        result = engine.run(groupby_sum("uservisits", "sourceIP",
                                        "adRevenue", key_prefix=5))
        assert result.gc_pause_ms < 0.1 * max(result.wall_ms, 1e-9) + 50

    def test_unknown_table_raises(self):
        engine = self.make_engine()
        with pytest.raises(SqlError):
            engine.run(select(["x"], "nope"))

    def test_double_registration_rejected(self):
        engine = self.make_engine()
        with pytest.raises(SqlError):
            engine.register_table("rankings", RANKINGS_SCHEMA, [])

    def test_bad_operator_rejected(self):
        with pytest.raises(SqlError):
            select(["a"], "t", where=("a", "~", 1))

    def test_substr_on_numeric_rejected(self):
        engine = self.make_engine()
        with pytest.raises(SqlError):
            engine.run(groupby_sum("rankings", "pageRank", "avgDuration",
                                   key_prefix=3))

    def test_uncache_releases(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        assert engine.cached_bytes > 0
        engine.uncache_table("rankings")
        assert engine.cached_bytes == 0

    def test_top_k_matches_python(self):
        engine = self.make_engine()
        rows = rankings_table(200)
        result = engine.run(top_k(["pageURL", "pageRank"], "rankings",
                                  order_by="pageRank", k=5))
        expected = sorted(((r[0], r[1]) for r in rows),
                          key=lambda t: t[1], reverse=True)[:5]
        assert [r[1] for r in result.rows] == [e[1] for e in expected]


class TestArenaAccounting:
    """Regression: SQL caches used to escape memory accounting.

    The old engine summed a private ``cached_bytes`` counter and never
    told the unified arena anything — cached relations were invisible
    to eviction and to the ``memory:*`` trace stream.
    """

    def make_engine(self):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(200))
        return engine

    def test_cache_charges_unified_arena(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        assert engine.cached_bytes > 0
        assert engine.arena.storage_used == engine.cached_bytes
        events = [e.name for e in engine.tracer.by_category("memory")]
        assert "memory:acquire" in events

    def test_uncache_discharges_arena(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        engine.uncache_table("rankings")
        assert engine.arena.storage_used == 0
        events = [e.name for e in engine.tracer.by_category("memory")]
        assert "memory:release" in events


class TestLayoutPlanning:
    def test_fixed_schema_goes_columnar(self):
        plan = plan_sql_layout(RANKINGS_SCHEMA)
        assert plan.layout == "columnar"
        assert plan.table == "rankings"

    def test_opaque_column_falls_back_to_row(self):
        plan = plan_sql_layout(BLOBS_SCHEMA)
        assert plan.layout == "row"
        assert plan.reason

    def test_engine_auto_layouts(self):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(20))
        engine.register_table("blobs", BLOBS_SCHEMA,
                              [(i, bytes([i, i + 1])) for i in range(8)])
        engine.cache_table("rankings")
        engine.cache_table("blobs")
        assert engine.layout_of("rankings") == "columnar"
        assert engine.layout_of("blobs") == "row"

    def test_opaque_relation_roundtrips_rows(self):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
        rows = [(i, bytes([i, 255 - i])) for i in range(10)]
        engine.register_table("blobs", BLOBS_SCHEMA, rows)
        table = engine.cache_table("blobs")
        assert [table.row(i) for i in range(10)] == rows

    def test_forced_row_layout_same_answers(self):
        rows = rankings_table(150)
        query = select(["pageURL", "pageRank"], "rankings",
                       where=("pageRank", ">", 100))
        results = {}
        for layout in ("columnar", "row"):
            engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
            engine.register_table("rankings", RANKINGS_SCHEMA, rows)
            engine.cache_table("rankings", layout=layout)
            assert engine.layout_of("rankings") == layout
            results[layout] = sorted(engine.run(query).rows)
        assert results["columnar"] == results["row"]

    @pytest.mark.parametrize("layout", ["columnar", "row"])
    def test_substr_cuts_characters_not_bytes(self, layout):
        """``SUBSTR(k, 1, 2)`` is a two-*character* prefix on both
        layouts; a two-byte cut splits "é" and merges three groups."""
        schema = TableSchema("t", [Column("k", ColumnType.STRING),
                                   Column("v", ColumnType.DOUBLE)])
        rows = [("héllo", 1.0), ("hèllo", 2.0), ("hello", 4.0),
                ("h", 8.0)]
        expected = [("h", 8.0), ("he", 4.0), ("hè", 2.0), ("hé", 1.0)]
        with SqlEngine(DecaConfig(heap_bytes=64 * MB)) as engine:
            engine.register_table("t", schema, rows)
            table = engine.cache_table("t", layout=layout)
            assert engine.run(groupby_sum("t", "k", "v",
                                          key_prefix=2)).rows == expected
            assert engine.sql("SELECT SUBSTR(k, 1, 2), SUM(v) FROM t "
                              "GROUP BY SUBSTR(k, 1, 2)").rows == expected
            # The point accessor honours the same contract.
            column = table.column("k")
            assert [column.get_prefix(i, 2) for i in range(4)] \
                == [key[:2] for key, _ in rows]

    def test_negative_substr_length_rejected(self):
        with pytest.raises(SqlError):
            groupby_sum("t", "k", "v", key_prefix=-1)

    def test_unknown_layout_rejected(self):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(5))
        with pytest.raises(SqlError):
            engine.cache_table("rankings", layout="diagonal")


class TestColdTierSwap:
    def make_engine(self, rows=400):
        cfg = DecaConfig(heap_bytes=64 * MB, cold_tier="mmap",
                         sanitize=True)
        engine = SqlEngine(cfg)
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(rows))
        return engine

    def test_demote_promote_roundtrip(self):
        engine = self.make_engine()
        query = select(["pageURL", "pageRank"], "rankings",
                       where=("pageRank", ">", 100))
        resident = engine.run(query).rows
        moved = engine.demote_table("rankings")
        assert moved > 0
        assert engine.cached_bytes == 0
        # run() promotes the relation back from the tier on demand.
        assert engine.run(query).rows == resident
        # The mmap tier moves raw page bytes: no serializer anywhere.
        assert engine.swap_copy_bytes == 0
        engine.close()
        assert engine.ledger.check_finish()["violations"] == 0

    def test_redemote_of_promoted_pages_moves_nothing(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        assert engine.demote_table("rankings") > 0
        engine.run(select(["pageRank"], "rankings"))
        # Promoted pages alias the tier extent, so the extent is still
        # valid and a re-demote moves zero bytes.
        assert engine.demote_table("rankings") == 0
        engine.close()
        assert engine.ledger.check_finish()["violations"] == 0

    @pytest.mark.parametrize("shape", [name for name, _ in suite_queries()])
    def test_bulk_kernels_leave_no_view_behind(self, shape):
        """run → demote → run (promotes) → demote, per query shape.

        ``memoryview.release()`` succeeds while a *slice* of the view is
        alive, so the probe is the exporter itself: a heap page
        (``bytearray``) refuses to resize and the tier's mapping refuses
        to close for as long as any kernel-made sub-view survives.
        """
        query = dict(suite_queries())[shape]
        cfg = DecaConfig(heap_bytes=64 * MB, cold_tier="mmap",
                         sanitize=True)
        engine = make_suite_engine(rankings_table(400),
                                   uservisits_table(600), cfg,
                                   layout="columnar")
        table = engine.cache_table(query.table)
        resident = engine.run(query).rows
        assert table._view_cache
        heap_pages = [page.data for page in table._group.pages]
        assert engine.demote_table(query.table) > 0
        assert table._view_cache == {}
        for data in heap_pages:
            data.clear()  # BufferError while a view is exported
        assert engine.run(query).rows == resident
        assert table._view_cache
        mapping = engine._tier._mm
        # Promoted pages alias the extent: nothing left to move.
        assert engine.demote_table(query.table) == 0
        assert engine.swap_copy_bytes == 0
        engine.close()
        assert mapping.closed
        assert engine.ledger.violations == []
        assert engine.ledger.check_finish()["violations"] == 0

    def test_uncache_drops_extent(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        engine.demote_table("rankings")
        engine.uncache_table("rankings")
        assert engine.tier_stats["extents_live"] == 0
        engine.close()

    def test_heap_tier_counts_serializer_copies(self):
        cfg = DecaConfig(heap_bytes=64 * MB, cold_tier="heap")
        engine = SqlEngine(cfg)
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(100))
        engine.cache_table("rankings")
        moved = engine.demote_table("rankings")
        assert moved > 0
        assert engine.swap_copy_bytes == moved
        engine.close()
