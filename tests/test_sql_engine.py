"""Tests for the mini columnar SQL engine (the Table 6 baseline)."""

import pytest

from repro.analysis import udt as type_graph
from repro.analysis.size_type import SizeType
from repro.apps.sql_queries import (make_suite_engine, run_sql_suite,
                                    suite_queries)
from repro.config import DecaConfig, MB
from repro.core.optimizer import plan_sql_layout
from repro.core.plan import StorageStrategy
from repro.data import rankings_table, uservisits_table
from repro.errors import MemoryLayoutError, SchemaError, SqlError
from repro.memory.layout import columnar_plan
from repro.sql import (
    Column,
    ColumnType,
    ColumnarTable,
    SqlEngine,
    TableSchema,
    groupby_agg,
    groupby_sum,
    select,
    top_k,
)
from repro.sql.columnar import row_major_schema
from repro.sql.schema import RANKINGS_SCHEMA, USERVISITS_SCHEMA, table_udt

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

    @pytest.mark.parametrize("layout", ["columnar", "row"])
    @pytest.mark.parametrize("statement, column", [
        ("SELECT pageURL FROM rankings WHERE pageRank > 'abc'",
         "pageRank"),
        ("SELECT pageURL FROM rankings WHERE pageURL = 7", "pageURL"),
        ("SELECT pageRank, SUM(pageURL) FROM rankings GROUP BY pageRank",
         "pageURL"),
        ("SELECT pageRank, AVG(pageURL) FROM rankings GROUP BY pageRank",
         "pageURL"),
    ], ids=["where-int-str", "where-str-int", "sum-str", "avg-str"])
    def test_ill_typed_query_rejected(self, layout, statement, column):
        """A WHERE literal must fit its column and SUM/AVG need numbers:
        the kernels would raise a bare TypeError or, for SUM over
        strings, concatenate them into a wrong answer."""
        engine = self.make_engine(rankings=20)
        engine.cache_table("rankings", layout=layout)
        with pytest.raises(SqlError, match=column):
            engine.sql(statement)

    def test_ill_typed_query_api_rejected(self):
        engine = self.make_engine(rankings=20)
        with pytest.raises(SqlError, match="pageRank"):
            engine.run(select(["pageURL"], "rankings",
                              where=("pageRank", ">", "abc")))
        for func in ("SUM", "AVG"):
            with pytest.raises(SqlError, match="sourceIP"):
                engine.run(groupby_agg("uservisits", func, "destURL",
                                       "sourceIP"))
        # Only SUM/AVG need numbers: MAX orders strings.
        assert engine.run(groupby_agg("uservisits", "MAX", "destURL",
                                      "sourceIP")).rows

    def test_closed_engine_refuses_work(self):
        """After close() the context is finished and its tier closed: a
        query must not re-cache into it, nor a demote empty a relation
        it then cannot swap out."""
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB, cold_tier="mmap"))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(20))
        query = select(["pageURL"], "rankings")
        engine.run(query)
        engine.demote_table("rankings")
        engine.close()
        for call in (lambda: engine.run(query),
                     lambda: engine.cache_table("rankings"),
                     lambda: engine.demote_table("rankings")):
            with pytest.raises(SqlError, match="closed"):
                call()
        assert engine.cached_bytes == 0
        assert engine.arena.storage_used == 0

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


@pytest.mark.parametrize("memory_mode", ["static", "unified"])
class TestArenaAccounting:
    """Regression: SQL caches used to escape memory accounting.

    The old engine summed a private ``cached_bytes`` counter and never
    told the arena anything — cached relations were invisible to
    eviction and to the ``memory:*`` trace stream.  The engine's arena
    follows ``memory_mode``; the unified one traces its storage moves.
    """

    def make_engine(self, memory_mode):
        engine = SqlEngine(DecaConfig(heap_bytes=64 * MB,
                                      memory_mode=memory_mode))
        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(200))
        return engine

    def test_cache_charges_arena(self, memory_mode):
        engine = self.make_engine(memory_mode)
        engine.cache_table("rankings")
        assert engine.cached_bytes > 0
        assert engine.arena.storage_used == engine.cached_bytes
        if memory_mode == "unified":
            events = [e.name for e in engine.tracer.by_category("memory")]
            assert "memory:acquire" in events

    def test_uncache_discharges_arena(self, memory_mode):
        engine = self.make_engine(memory_mode)
        engine.cache_table("rankings")
        engine.uncache_table("rankings")
        assert engine.arena.storage_used == 0
        if memory_mode == "unified":
            events = [e.name for e in engine.tracer.by_category("memory")]
            assert "memory:release" in events


#: The executor's charge methods: every tick a query books goes through one.
CHARGES = ("charge_compute", "charge_disk_write", "charge_disk_read",
           "charge_network", "charge_tier_write", "charge_tier_read")


class TestOneChargingPath:
    @pytest.mark.parametrize("layout", ["columnar", "row"])
    def test_every_query_tick_is_an_executor_charge(self, layout,
                                                    monkeypatch):
        """Spy on the executor's charges: what they book plus the heap's
        GC pauses is the clock's whole advance, for the cache build and
        every suite query (a 1 MB heap puts a minor collection inside
        one), so nothing in the engine moves the clock on its own."""
        engine = SqlEngine(DecaConfig(heap_bytes=1 * MB))
        executor = engine.context.executors[0]
        booked = []

        def spy(charge):
            def book(*args):
                start = executor.clock.ticks
                gc_start = executor.heap.stats.pause_ticks
                charge(*args)
                booked.append(executor.clock.ticks - start
                              - (executor.heap.stats.pause_ticks - gc_start))
            return book

        for name in CHARGES:
            monkeypatch.setattr(executor, name, spy(getattr(executor, name)))

        def check(step, work):
            booked.clear()
            start = executor.clock.ticks
            gc_start = executor.heap.stats.pause_ticks
            work()
            advance = executor.clock.ticks - start
            assert advance > 0, step
            assert sum(booked) + executor.heap.stats.pause_ticks \
                - gc_start == advance, step

        engine.register_table("rankings", RANKINGS_SCHEMA,
                              rankings_table(1500, seed=7))
        engine.register_table("uservisits", USERVISITS_SCHEMA,
                              uservisits_table(3000, seed=8))
        with engine:
            for table in ("rankings", "uservisits"):
                check(table, lambda: engine.cache_table(table, layout))
            for name, query in suite_queries():
                check(name, lambda: engine.run(query))
            assert engine.heap.stats.minor_count > 0


class TestLayoutPlanning:
    def test_one_relation_udt_per_schema(self):
        assert table_udt(RANKINGS_SCHEMA) is table_udt(RANKINGS_SCHEMA)
        assert table_udt(BLOBS_SCHEMA) is not table_udt(RANKINGS_SCHEMA)

    def test_repeated_suite_leaves_the_type_graph_alone(self):
        """Planning a relation's layout again reuses its UDT: a second
        suite run adds no class, so no compiled measurer goes stale."""
        rankings, uservisits = rankings_table(60), uservisits_table(80)
        run_sql_suite(rankings, uservisits)
        before = type_graph.epoch
        run_sql_suite(rankings, uservisits)
        assert type_graph.epoch == before

    def test_fixed_schema_goes_columnar(self):
        """A fixed-schema relation's plan is column-major pages, and its
        record schema is the one the columns are laid out from."""
        plan = plan_sql_layout(RANKINGS_SCHEMA)
        assert plan.strategy is StorageStrategy.DECA_COLUMNS
        assert (plan.target, plan.udt) == ("sql:rankings",
                                          "SqlRelation_rankings")
        assert plan.decomposed
        assert plan.local_size_type is plan.global_size_type \
            is SizeType.RUNTIME_FIXED
        assert [name for name, _ in columnar_plan(plan.schema)] \
            == [column.name for column in RANKINGS_SCHEMA.columns]
        table = ColumnarTable(RANKINGS_SCHEMA, rankings_table(5))
        assert repr(table._layouts) == repr(
            [layout for _, layout in columnar_plan(plan.schema)])

    @pytest.mark.parametrize("ctypes", [
        *([ctype] for ctype in ColumnType if ctype is not ColumnType.OPAQUE),
        [ctype for ctype in ColumnType if ctype is not ColumnType.OPAQUE],
    ], ids=lambda ctypes: "-".join(ctype.value for ctype in ctypes))
    def test_columnar_plan_record_is_the_row_major_record(self, ctypes):
        """For every fixed-width and string column type the columnar
        plan's record is the record the tables lay out, field for field
        (the plan's record is named after the UDT, the table's after the
        relation): both are built from one column-type map."""
        schema = TableSchema(f"t_{'_'.join(c.value for c in ctypes)}", [
            Column(f"c{i}", ctype) for i, ctype in enumerate(ctypes)])
        plan = plan_sql_layout(schema)
        laid_out = row_major_schema(schema)
        assert plan.strategy is StorageStrategy.DECA_COLUMNS
        assert repr(plan.schema.fields) == repr(laid_out.fields)
        assert repr(columnar_plan(plan.schema)) \
            == repr(columnar_plan(laid_out))

    def test_opaque_column_falls_back_to_row(self):
        """An opaque relation's plan is row-major pages in the record
        layout of ``row_major_schema``, and it says why."""
        plan = plan_sql_layout(BLOBS_SCHEMA)
        assert plan.strategy is StorageStrategy.DECA_PAGES
        assert plan.target == "sql:blobs" and plan.decomposed
        assert repr(plan.schema) == repr(row_major_schema(BLOBS_SCHEMA))
        assert plan.reason.startswith("no column-major layout: ")
        with pytest.raises(MemoryLayoutError, match="no column-major"):
            ColumnarTable(BLOBS_SCHEMA, [(1, b"x")])

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


NAN = float("nan")
NAN_SCHEMA = TableSchema("t", [Column("k", ColumnType.DOUBLE),
                               Column("v", ColumnType.DOUBLE)])
NAN_ROWS = [(NAN, 1.0), (2.0, 1.0), (NAN, 2.0), (-0.0, 5.0), (0.0, 6.0),
            (NAN, 4.0)]


@pytest.mark.parametrize("layout", ["columnar", "row"])
class TestNanKeys:
    """Regression: a NaN key is not equal to itself, so every NaN row
    used to open its own group (which ``sorted`` could not place), and a
    top-k sort on a NaN-holding column dropped ordinary rows.  NaN keys
    now form one group, sorted last; in ORDER BY, NaN is the largest
    value (Spark's order).  Rows compare on ``repr``, which tells
    ``nan``, ``-0.0`` and ``0.0`` apart."""

    def run(self, layout, query):
        with SqlEngine(DecaConfig(heap_bytes=64 * MB)) as engine:
            engine.register_table("t", NAN_SCHEMA, NAN_ROWS)
            engine.cache_table("t", layout=layout)
            return repr(engine.run(query).rows)

    def test_nan_keys_form_one_group(self, layout):
        # The ±0.0 group keeps its first-seen key; NaN's sum is in row
        # order, 1.0 + 2.0 + 4.0.
        assert self.run(layout, groupby_agg("t", "SUM", "k", "v")) \
            == repr([(-0.0, 11.0), (2.0, 1.0), (NAN, 7.0)])
        assert self.run(layout, groupby_agg("t", "COUNT", "k", "v")) \
            == repr([(-0.0, 2), (2.0, 1), (NAN, 3)])

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 6, 11])
    def test_top_k_orders_nan_as_largest(self, layout, descending, k):
        ordinary = [(-0.0, 5.0), (0.0, 6.0), (2.0, 1.0)]
        nans = [(NAN, 1.0), (NAN, 2.0), (NAN, 4.0)]
        if descending:
            expected = nans + [(2.0, 1.0), (-0.0, 5.0), (0.0, 6.0)]
        else:
            expected = ordinary + nans
        assert self.run(layout, top_k(["k", "v"], "t", order_by="k", k=k,
                                      descending=descending)) \
            == repr(expected[:k])


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
        assert engine.sanitizer.check_finish()["violations"] == 0

    def test_redemote_of_promoted_pages_moves_nothing(self):
        engine = self.make_engine()
        engine.cache_table("rankings")
        assert engine.demote_table("rankings") > 0
        engine.run(select(["pageRank"], "rankings"))
        # Promoted pages alias the tier extent, so the extent is still
        # valid and a re-demote moves zero bytes.
        assert engine.demote_table("rankings") == 0
        engine.close()
        assert engine.sanitizer.check_finish()["violations"] == 0

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
        # The mmap tier's extent store, opened by the first demote.
        mapping = engine.cold_tier.extents._mm
        # Promoted pages alias the extent: nothing left to move.
        assert engine.demote_table(query.table) == 0
        assert engine.swap_copy_bytes == 0
        engine.close()
        assert mapping.closed
        assert engine.sanitizer.violations == []
        assert engine.sanitizer.check_finish()["violations"] == 0

    def test_close_reports_the_run(self):
        """close() finishes the engine's context: the sanitizer summary
        and the tier's snapshot (its I/O charged to the executor) land
        in one RunMetrics, returned again by a second close()."""
        engine = self.make_engine()
        query = select(["pageURL", "pageRank"], "rankings")
        resident = engine.run(query).rows
        assert engine.demote_table("rankings") > 0
        assert engine.run(query).rows == resident
        run = engine.close()
        assert run.sanitize["borrows"] > 0
        assert run.sanitize["violations"] == 0
        assert run.tier["tier_ms"] > 0
        assert run.tier["bytes_moved_in"] > 0
        assert engine.close() is run

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
