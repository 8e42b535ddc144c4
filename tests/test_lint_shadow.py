"""Shadow validator tests: the sanitizer's lifetime book, the trace's
arena ledger and the differential checks that read them."""

from types import SimpleNamespace

from repro.analysis import ArrayType, ClassType, Field, LONG, SizeType
from repro.apps.logistic_regression import (labeled_point_udt_info,
                                            run_logistic_regression)
from repro.apps.pagerank import run_pagerank
from repro.apps.wordcount import wordcount_udt_info
from repro.config import DecaConfig, ExecutionMode, MB
from repro.core.plan import ContainerPlan
from repro.data.graphs import power_law_graph
from repro.data.vectors import labeled_points
from repro.lint import (
    check_arena_accounting,
    check_imprecision,
    check_observations,
    shadow_summary,
)
from repro.memory.layout import build_schema
from repro.memory.page import PageGroup
from repro.obs import Tracer
from repro.obs.sanitizer import Sanitizer
from repro.spark import DecaContext


def _record_schema():
    """``Rec(vid: Long, xs: Array[Long])`` — an RFST with a var array."""
    rec = ClassType("Rec", [
        Field("vid", LONG),
        Field("xs", ArrayType(LONG), final=True),
    ])
    return build_schema(rec, SizeType.RUNTIME_FIXED)


def _sfst_report(udt: str) -> ContainerPlan:
    return ContainerPlan(target=f"cache:{udt}", udt=udt,
                         local_size_type=SizeType.VARIABLE,
                         global_size_type=SizeType.STATIC_FIXED,
                         decomposed=True, reason="decomposed")


def _book(*appends: tuple[str, str, int]) -> Sanitizer:
    """A sanitizer whose lifetime book holds *appends*
    (``(group, schema, size)`` each)."""
    sanitizer = Sanitizer()
    for group, schema, size in appends:
        sanitizer.note_append(group, schema, size)
    return sanitizer


def _ledger(*events: tuple[str, str, int]) -> Tracer:
    """A trace holding the arena's ``memory:<event>`` instants
    (``(event, entry, nbytes)`` each)."""
    tracer = Tracer()
    for event, entry, nbytes in events:
        tracer.instant(f"memory:{event}", "memory", 0.0, entry=entry,
                       nbytes=nbytes)
    return tracer


def _cache_points(ctx: DecaContext, count: int) -> None:
    data = [(1.0, tuple(float(d) for d in range(4)))] * count
    ctx.parallelize(data, 2).map(
        lambda r: r, udt_info=labeled_point_udt_info(4)).cache().count()


class TestLifetimeBook:
    def test_counts_appends_of_sanitized_groups_only(self):
        schema = _record_schema()
        sanitizer = Sanitizer()
        group = PageGroup("shadow-test", 4096)
        group.sanitizer = sanitizer
        group.append_record(schema, (1, (10, 20, 30)))
        group.append_record(schema, (2, (40,)))
        PageGroup("plain", 4096).append_record(schema, (3, (50, 60)))

        big, small = (schema.size_of((1, (10, 20, 30))),
                      schema.size_of((2, (40,))))
        assert sanitizer.record_sizes == {"Rec": {big: 1, small: 1}}
        assert sanitizer.group_bytes == {"shadow-test": ("Rec",
                                                         big + small)}
        # The book is not a sanitizer counter: the run summary (and
        # every committed RunMetrics.sanitize) does not move.
        assert sanitizer.summary() == Sanitizer().summary()

    def test_two_contexts_keep_separate_books(self):
        """Only the sanitized context's own appends reach its book, even
        with a second context caching in the same interpreter between
        its jobs."""
        config = dict(mode=ExecutionMode.DECA, heap_bytes=32 * MB,
                      num_executors=1, tasks_per_executor=2)
        sanitized = DecaContext(DecaConfig(sanitize=True, **config))
        plain = DecaContext(DecaConfig(**config))
        _cache_points(plain, 300)
        _cache_points(sanitized, 40)
        _cache_points(plain, 300)
        book = sanitized.sanitizer.record_sizes
        assert sum(sum(sizes.values()) for sizes in book.values()) == 40
        assert all(executor.arena.sanitizer is None
                   for executor in plain.executors)
        sanitized.finish()
        plain.finish()

    def test_bulk_built_blocks_keep_the_per_record_book(self):
        """Cache blocks are built a page at a time (LR, fixed-size) or
        record by record (PageRank's adjacency lists, length-prefixed);
        either way the book holds what one note per record gave."""
        config = dict(mode=ExecutionMode.DECA, heap_bytes=32 * MB,
                      num_executors=2, tasks_per_executor=2,
                      sanitize=True, page_bytes=4096)
        lr = run_logistic_regression(
            labeled_points(300, dimensions=6), DecaConfig(**config),
            iterations=2, num_partitions=3).ctx.sanitizer
        # 100 records of 68 B per block: each block spans two pages.
        assert lr.record_sizes == {"LabeledPoint": {68: 300}}
        assert lr.group_bytes == {
            f"cache:(1, {split})": ("LabeledPoint", 6800)
            for split in range(3)}
        pr = run_pagerank(power_law_graph(60, 240), DecaConfig(**config),
                          iterations=2, num_partitions=3).ctx.sanitizer
        assert pr.record_sizes == {"AdjacencyList": {
            20: 3, 28: 6, 36: 17, 44: 15, 52: 9, 60: 4, 68: 4, 76: 1,
            84: 1}}
        assert pr.group_bytes == {
            "cache:(2, 0)": ("AdjacencyList", 912),
            "cache:(2, 1)": ("AdjacencyList", 904),
            "cache:(2, 2)": ("AdjacencyList", 824)}


class TestCheckObservations:
    def test_clean_when_sfst_records_share_one_size(self):
        sanitizer = _book(*[("g", "Point", 40)] * 3)
        assert check_observations("app", sanitizer,
                                  (_sfst_report("Point"),)) == []

    def test_flags_sfst_claims_with_varying_sizes(self):
        sanitizer = _book(("g", "Point", 40), ("g", "Point", 48))
        findings = check_observations("app", sanitizer,
                                      (_sfst_report("Point"),))
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "SFST" in findings[0].message
        assert "2 records observed" in findings[0].why[0]

    def test_rfst_claims_may_vary_per_record(self):
        sanitizer = _book(("g", "Rec", 40), ("g", "Rec", 48))
        report = ContainerPlan(target="cache:Rec", udt="Rec",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.RUNTIME_FIXED,
                               decomposed=True, reason="decomposed")
        assert check_observations("app", sanitizer, (report,)) == []


class TestCheckArenaAccounting:
    def test_silent_in_static_mode(self):
        sanitizer = _book(("g", "Point", 40))
        assert check_arena_accounting(
            "app", sanitizer, Tracer(), (_sfst_report("Point"),)) == []

    def test_clean_when_arena_covers_packed_bytes(self):
        sanitizer = _book(*[("g", "Point", 40)] * 3)
        assert check_arena_accounting(
            "app", sanitizer, _ledger(("grow", "g", 4096)),
            (_sfst_report("Point"),)) == []

    def test_flags_packed_bytes_beyond_arena_ledger(self):
        sanitizer = _book(*[("g", "Point", 40)] * 3)
        findings = check_arena_accounting(
            "app", sanitizer, _ledger(("acquire", "g", 64)),
            (_sfst_report("Point"),))
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "only ever accounted 64 bytes" in findings[0].message
        assert "STATIC_FIXED" in findings[0].message

    def test_flags_negative_ledger(self):
        sanitizer = _book(("g", "Point", 40))
        ledger = _ledger(("grow", "g", 4096), ("release", "g", 5000))
        findings = check_arena_accounting("app", sanitizer, ledger, ())
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "negative" in findings[0].message

    def test_ignores_events_without_a_storage_entry(self):
        sanitizer = _book(*[("g", "Point", 40)] * 3)
        tracer = _ledger(("acquire", "g", 64))
        tracer.instant("memory:acquire", "memory", 0.0, task=1,
                       nbytes=4096)
        findings = check_arena_accounting("app", sanitizer, tracer, ())
        assert "over 1 arena events" in findings[0].why[0]

    def test_recorded_end_to_end_by_shadow_run(self):
        from repro.lint import LINT_APPS_BY_NAME, lint_app

        result = lint_app(LINT_APPS_BY_NAME["lr"], shadow=True)
        # The shadow run's book saw every cached point, and the
        # accounting check stayed clean on the healthy app.
        assert result.summary["page_records"] == 600
        assert not [f for f in result.findings
                    if f.rule_id == "DECA101"]

    def test_variable_size_blocks_recorded_by_shadow_run(self):
        from repro.lint import LINT_APPS_BY_NAME, lint_app

        result = lint_app(LINT_APPS_BY_NAME["pr"], shadow=True)
        assert result.summary["page_records"] == 200
        assert not [f for f in result.findings
                    if f.rule_id in ("DECA101", "DECA102")]


class TestCheckImprecision:
    def _fake_ctx(self, info, records):
        rdd = SimpleNamespace(name="x.rows", udt_info=info)
        block = SimpleNamespace(records=records)
        executor = SimpleNamespace(
            cache=SimpleNamespace(blocks={(0, 0): block}))
        return SimpleNamespace(executors=[executor], _rdds={0: rdd})

    def _object_form_report(self, udt: str) -> ContainerPlan:
        return ContainerPlan(target="cache:x.rows", udt=udt,
                             local_size_type=SizeType.VARIABLE,
                             global_size_type=SizeType.VARIABLE,
                             decomposed=False, reason="kept in object form")

    def test_notes_constant_sized_object_form_caches(self):
        info = labeled_point_udt_info(4)
        records = [(1.0, (0.1, 0.2, 0.3, 0.4)),
                   (-1.0, (0.5, 0.6, 0.7, 0.8))]
        ctx = self._fake_ctx(info, records)
        findings = check_imprecision(
            "app", ctx, (self._object_form_report("LabeledPoint"),))
        assert [f.rule_id for f in findings] == ["DECA102"]
        assert "object form" in findings[0].message

    def test_silent_when_observed_sizes_really_vary(self):
        info = wordcount_udt_info()
        records = [("short", 1), ("a-much-longer-word", 2)]
        ctx = self._fake_ctx(info, records)
        assert check_imprecision(
            "app", ctx, (self._object_form_report("Tuple2"),)) == []

    def test_silent_for_decomposed_caches(self):
        info = labeled_point_udt_info(4)
        ctx = self._fake_ctx(info, [(1.0, (0.1, 0.2, 0.3, 0.4))] * 3)
        report = ContainerPlan(target="cache:x.rows", udt="LabeledPoint",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.STATIC_FIXED,
                               decomposed=True, reason="decomposed")
        assert check_imprecision("app", ctx, (report,)) == []


class TestShadowSummary:
    def test_summary_is_integer_only(self):
        sanitizer = _book(("g", "Rec", 40), ("g", "Rec", 48))
        summary = shadow_summary(sanitizer, (_sfst_report("Rec"),))
        assert summary["page_records"] == 2
        assert summary["schemas"]["Rec"] == {
            "records": 2, "min_bytes": 40, "max_bytes": 48}
        assert summary["plans"][0]["udt"] == "Rec"

        def only_safe_values(value):
            if isinstance(value, dict):
                return all(only_safe_values(v) for v in value.values())
            if isinstance(value, list):
                return all(only_safe_values(v) for v in value)
            return isinstance(value, (int, str, bool, type(None)))

        assert only_safe_values(summary)
