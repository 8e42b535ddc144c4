"""Shadow validator tests: observation capture and differential checks."""

from types import SimpleNamespace

import pytest

from repro.analysis import ArrayType, ClassType, Field, LONG, SizeType
from repro.apps.logistic_regression import labeled_point_udt_info
from repro.apps.wordcount import wordcount_udt_info
from repro.core.plan import ContainerPlan
from repro.errors import PageOverflowError
from repro.lint import (
    ArenaEvent,
    PageAppend,
    ShadowRecorder,
    check_arena_accounting,
    check_imprecision,
    check_observations,
    shadow_summary,
)
from repro.memory.layout import build_schema
from repro.memory.page import PageGroup
from repro.memory.sudt import bind_accessor


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


class TestShadowRecorder:
    def test_captures_page_appends_only_while_active(self):
        schema = _record_schema()
        group = PageGroup("shadow-test", 4096)
        with ShadowRecorder() as recorder:
            group.append_record(schema, (1, (10, 20, 30)))
            group.append_record(schema, (2, (40,)))
        group.append_record(schema, (3, (50, 60)))  # not recorded

        assert len(recorder.appends) == 2
        assert recorder.appends[0].group == "shadow-test"
        assert recorder.appends[0].schema == "Rec"
        assert recorder.appends[0].size == schema.size_of((1, (10, 20, 30)))

    def test_captures_resize_attempts_through_accessors(self):
        schema = _record_schema()
        group = PageGroup("shadow-test", 4096)
        pointer = group.append_record(schema, (1, (10, 20, 30)))
        buf, off = group.read(pointer)
        with ShadowRecorder() as recorder:
            accessor = bind_accessor(schema, buf, off)
            accessor.xs[0] = 99                      # size-preserving
            with pytest.raises(PageOverflowError):
                accessor.xs.replace((1, 2))          # grows: forbidden
        kinds = [m.kind for m in recorder.mutations]
        assert "element-write" in kinds
        assert "array-resize" in kinds
        assert len(recorder.resize_attempts()) == 1

    def test_captures_whole_record_overwrites(self):
        schema = _record_schema()
        group = PageGroup("shadow-test", 4096)
        pointer = group.append_record(schema, (1, (10, 20, 30)))
        buf, off = group.read(pointer)
        with ShadowRecorder() as recorder:
            accessor = bind_accessor(schema, buf, off)
            accessor.write((7, (1, 2, 3)))           # same size: fine
            with pytest.raises(PageOverflowError):
                accessor.write((7, (1, 2, 3, 4)))    # resize: forbidden
        kinds = [m.kind for m in recorder.mutations]
        assert "record-overwrite" in kinds
        assert "record-resize" in kinds


class TestCheckObservations:
    def test_clean_when_sfst_records_share_one_size(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40)] * 3
        assert check_observations("app", recorder,
                                  (_sfst_report("Point"),)) == []

    def test_flags_sfst_claims_with_varying_sizes(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40),
                            PageAppend("g", "Point", 48)]
        findings = check_observations("app", recorder,
                                      (_sfst_report("Point"),))
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "SFST" in findings[0].message

    def test_rfst_claims_may_vary_per_record(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Rec", 40),
                            PageAppend("g", "Rec", 48)]
        report = ContainerPlan(target="cache:Rec", udt="Rec",
                               local_size_type=SizeType.VARIABLE,
                               global_size_type=SizeType.RUNTIME_FIXED,
                               decomposed=True, reason="decomposed")
        assert check_observations("app", recorder, (report,)) == []

    def test_flags_resize_attempts(self):
        schema = _record_schema()
        group = PageGroup("g", 4096)
        pointer = group.append_record(schema, (1, (10, 20, 30)))
        buf, off = group.read(pointer)
        with ShadowRecorder() as recorder:
            with pytest.raises(PageOverflowError):
                bind_accessor(schema, buf, off).xs.replace(())
        findings = check_observations("app", recorder, ())
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "array-resize" in findings[0].message


class TestCheckArenaAccounting:
    def test_silent_in_static_mode(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40)]
        assert check_arena_accounting(
            "app", recorder, (_sfst_report("Point"),)) == []

    def test_clean_when_arena_covers_packed_bytes(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40)] * 3
        recorder.arena_events = [ArenaEvent("grow", "g", 4096)]
        assert check_arena_accounting(
            "app", recorder, (_sfst_report("Point"),)) == []

    def test_flags_packed_bytes_beyond_arena_ledger(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40)] * 3
        recorder.arena_events = [ArenaEvent("acquire", "g", 64)]
        findings = check_arena_accounting(
            "app", recorder, (_sfst_report("Point"),))
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "only ever accounted 64 bytes" in findings[0].message
        assert "STATIC_FIXED" in findings[0].message

    def test_flags_negative_ledger(self):
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Point", 40)]
        recorder.arena_events = [ArenaEvent("grow", "g", 4096),
                                 ArenaEvent("release", "g", 5000)]
        findings = check_arena_accounting("app", recorder, ())
        assert [f.rule_id for f in findings] == ["DECA101"]
        assert "negative" in findings[0].message

    def test_recorded_end_to_end_by_shadow_run(self):
        from repro.lint import LINT_APPS_BY_NAME, lint_app

        result = lint_app(LINT_APPS_BY_NAME["wordcount"], shadow=True)
        # The unified-mode shadow run produced arena traffic and the
        # accounting check stayed clean on the healthy app.
        assert not [f for f in result.findings
                    if f.rule_id == "DECA101"]


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
        recorder = ShadowRecorder()
        recorder.appends = [PageAppend("g", "Rec", 40),
                            PageAppend("g", "Rec", 48)]
        summary = shadow_summary(recorder, (_sfst_report("Rec"),))
        assert summary["page_records"] == 2
        assert summary["schemas"]["Rec"] == {
            "records": 2, "min_bytes": 40, "max_bytes": 48}
        assert summary["sudt_writes"] == 0
        assert summary["resize_attempts"] == 0
        assert summary["plans"][0]["udt"] == "Rec"

        def only_safe_values(value):
            if isinstance(value, dict):
                return all(only_safe_values(v) for v in value.values())
            if isinstance(value, list):
                return all(only_safe_values(v) for v in value)
            return isinstance(value, (int, str, bool, type(None)))

        assert only_safe_values(summary)
