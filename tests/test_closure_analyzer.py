"""Unit tests for the bytecode-level closure analyzer.

Every rule of the DECA2xx family gets a positive and (via the clean
closures) a negative case; the bounded call-graph walk, the pragma
suppression and the ``analyze_value`` builtin handling are pinned too,
and so is the lint consumer's static-plus-differential detection.
"""

import functools
import itertools
import math
import operator
import os
import random
import time
from itertools import repeat
from operator import add, mul

import pytest

from repro.analysis.closures import (
    analyze_closure,
    analyze_value,
    code_location,
    iter_hazard_rules,
)
from repro.config import DecaConfig, ExecutionMode, MB
from repro.lint import run_closure_rules
from repro.spark import DecaContext


_draw = random.random


def _jitter(x):
    return x + _draw()


def rules_of(fn, **kwargs):
    return list(iter_hazard_rules(analyze_closure(fn, **kwargs)))


class TestCleanClosures:
    def test_pure_arithmetic_lambda_is_clean(self):
        report = analyze_closure(lambda x: x * 2 + 1)
        assert report.hazards == ()
        assert report.determinism == "deterministic"
        assert report.purity == "pure"
        assert report.escape == "none"

    def test_tuple_default_capture_is_recorded_not_flagged(self):
        frozen = (1.0, 2.0, 3.0)

        def assign(point, c=frozen):
            best, best_d = 0, float("inf")
            for index in range(len(c)):
                d = (point - c[index]) * (point - c[index])
                if d < best_d:
                    best, best_d = index, d
            return best

        report = analyze_closure(assign)
        assert rules_of(assign) == []
        kinds = {(c.name, c.kind) for c in report.captures}
        assert ("c", "default") in kinds

    def test_cell_capture_of_immutable_is_clean(self):
        base = 10

        def shift(x):
            return x + base

        report = analyze_closure(shift)
        assert report.hazards == ()
        assert any(c.name == "base" and c.kind == "cell"
                   for c in report.captures)

    def test_deterministic_module_calls_are_clean(self):
        def keyed(record):
            import zlib
            return zlib.crc32(repr(record).encode()) & 0xFF

        report = analyze_closure(keyed)
        assert report.determinism == "deterministic"

    def test_genexpr_over_argument_is_not_an_escape(self):
        def total(xs):
            return sum(v * v for v in xs)

        report = analyze_closure(total)
        assert report.escape == "none"


class TestNondeterminism:
    def test_random_call_flags_deca202(self):
        def jitter(x):
            return x + random.random()

        assert "DECA202" in rules_of(jitter)
        assert analyze_closure(jitter).determinism == "nondeterministic"

    def test_local_import_of_random_flags_deca202(self):
        def jitter(x):
            import random as r
            return x + r.random()

        assert "DECA202" in rules_of(jitter)

    def test_time_and_environ_flag_deca202(self):
        def stamp(x):
            return x, time.time()

        def env(x):
            return os.environ.get("HOME", x)

        assert "DECA202" in rules_of(stamp)
        assert "DECA202" in rules_of(env)

    def test_id_builtin_flags_deca202(self):
        def addr(x):
            return id(x)

        assert "DECA202" in rules_of(addr)

    def test_captured_random_instance_flags_deca202(self):
        rng = random.Random(17)

        def draw(x):
            return rng.random() * x

        assert "DECA202" in rules_of(draw)

    @pytest.mark.parametrize("source", [
        random.random, random.Random(17).random, time.time])
    @pytest.mark.parametrize("kind", ["cell", "default"])
    def test_captured_nondeterministic_builtin_flags_deca202(self, source,
                                                             kind):
        # A bound builtin's type is ``builtins``: ``random.random`` is a
        # method of the module's hidden ``random.Random``.
        if kind == "cell":
            d = source
            udf = lambda x: (x, d())  # noqa: E731
        else:
            def udf(x, d=source):
                return x, d()

        assert "DECA202" in rules_of(udf)
        assert analyze_closure(udf).determinism == "nondeterministic"

    def test_captured_deterministic_builtin_stays_clean(self):
        def mk():
            m = operator.mul
            return lambda x: m(x, 2)

        assert analyze_closure(mk()).determinism == "deterministic"

    def test_hazard_found_through_helper_carries_via_chain(self):
        def helper():
            return random.random()

        def outer(x):
            return x + helper()

        report = analyze_closure(outer)
        nondet = [h for h in report.hazards if h.rule_id == "DECA202"]
        assert nondet and any("helper" in step for h in nondet
                              for step in h.via)

    def test_call_depth_exhaustion_degrades_to_unknown(self):
        def d1():
            return random.random()

        def d2():
            return d1()

        report = analyze_closure(lambda x: x + d2(), max_depth=1)
        assert report.determinism == "unknown"
        assert any("depth exhausted" in item for item in report.unresolved)


class TestIterationOrder:
    def test_captured_set_flags_deca203(self):
        stopwords = {"a", "the", "of"}

        def keep(word):
            return word not in stopwords

        assert "DECA203" in rules_of(keep)


class TestImpurity:
    def test_store_global_flags_deca204_and_205(self):
        def leak(x):
            global _test_sink
            _test_sink = x
            return x

        rules = rules_of(leak)
        assert "DECA204" in rules
        assert "DECA205" in rules

    def test_captured_cell_append_flags_204_and_205(self):
        seen = []

        def tap(record):
            seen.append(record)
            return record

        rules = rules_of(tap)
        assert {"DECA204", "DECA205"} <= set(rules)

    def test_mutable_default_argument_flags_deca206(self):
        def tap(record, log=[]):  # noqa: B006 - the hazard under test
            log.append(record)
            return record

        rules = rules_of(tap)
        assert "DECA206" in rules
        assert "DECA204" in rules

    def test_nonlocal_rebind_flags_deca204(self):
        count = 0

        def bump(x):
            nonlocal count
            count += 1
            return x

        assert "DECA204" in rules_of(bump)

    def test_print_flags_deca204(self):
        def noisy(x):
            print(x)
            return x

        assert "DECA204" in rules_of(noisy)

    def test_argument_mutation_flags_deca204(self):
        def grow(records):
            records.append(0)
            return records

        assert "DECA204" in rules_of(grow)


class TestEscape:
    def test_inner_lambda_over_argument_flags_deca205(self):
        def delayed(x):
            return lambda: x

        assert "DECA205" in rules_of(delayed)
        assert analyze_closure(delayed).escape == "escapes"


class TestPragmas:
    def test_pragma_suppresses_named_rule(self):
        audit = []

        def tap(record, log=audit):  # deca: allow(DECA204, DECA205, DECA206)
            log.append(record)
            return record

        report = analyze_closure(tap)
        assert report.hazards != ()
        assert report.active_hazards == ()
        assert report.suppressed_hazards == report.hazards
        assert report.purity == "pure"

    def test_family_wildcard_suppresses_everything(self):
        def jitter(x):  # deca: allow(DECA2xx)
            return x + random.random()

        report = analyze_closure(jitter)
        assert report.active_hazards == ()
        assert report.determinism == "deterministic"


class TestAnalyzeValue:
    def test_pure_builtin_gets_clean_synthetic_report(self):
        report = analyze_value(min)
        assert report is not None
        assert report.location == "<builtin>"
        assert report.determinism == "deterministic"

    def test_unknown_callable_is_honestly_unresolved(self):
        report = analyze_value(random.random)
        assert report is not None
        assert report.determinism != "deterministic"

    @pytest.mark.parametrize("fn", [operator.add, operator.mul,
                                    functools.reduce, itertools.repeat])
    def test_accelerated_stdlib_builtin_is_deterministic(self, fn):
        # ``operator.add.__module__`` is ``"_operator"``: the C
        # accelerator counts as the public module it backs.
        report = analyze_value(fn)
        assert report.determinism == "deterministic"
        assert report.unresolved == ()

    def test_map_operator_kernels_stay_deterministic(self):
        # LR's gradient as the app writes it: module-level ``mul`` and an
        # ``itertools.repeat`` built per record.
        def gradient(point, w=(0.5, -0.25)):
            label, features = point
            margin = -label * sum(map(mul, w, features))
            margin = margin if margin < 30.0 else 30.0
            margin = margin if margin > -30.0 else -30.0
            factor = (1.0 / (1.0 + math.exp(margin)) - 1.0) * label
            return tuple(map(mul, features, repeat(factor)))

        report = analyze_closure(gradient)
        assert report.unresolved == ()
        assert report.determinism == "deterministic"
        combine = analyze_closure(lambda a, b: tuple(map(add, a, b)))
        assert combine.determinism == "deterministic"

    def test_random_stays_unresolved_through_a_global(self):
        report = analyze_closure(_jitter)
        assert report.unresolved == ("_draw",)
        assert report.determinism != "deterministic"

    def test_non_callable_returns_none(self):
        assert analyze_value(42) is None

    def test_non_function_raises_in_analyze_closure(self):
        with pytest.raises(TypeError):
            analyze_closure(42)


class TestReportShape:
    def test_why_chain_names_opcode_and_line(self):
        def jitter(x):
            return x + random.random()

        report = analyze_closure(jitter)
        hazard = next(h for h in report.hazards
                      if h.rule_id == "DECA202")
        why = hazard.why(report.location)
        assert "[closure.dis]" in why
        assert hazard.opcode in why
        assert f":{hazard.line}:" in why

    def test_report_round_trips_to_dict(self):
        def jitter(x):
            return x + random.random()

        data = analyze_closure(jitter).to_dict()
        assert data["determinism"] == "nondeterministic"
        assert data["hazards"] and data["hazards"][0]["rule"]

    def test_code_location_is_repo_relative(self):
        def probe(x):
            return x

        assert code_location(probe.__code__).startswith("tests/")


class TestSyntheticUdfCaughtBothWays:
    """One nondeterministic UDF caught statically (DECA202) AND
    differentially (DECA211) by the lint double-run."""

    @staticmethod
    def make_ctx():
        return DecaContext(DecaConfig(mode=ExecutionMode.SPARK,
                                      heap_bytes=32 * MB, num_executors=2,
                                      tasks_per_executor=2))

    def test_static_and_differential_detection(self):
        ctx = self.make_ctx()
        rdd = ctx.parallelize(list(range(64)), 4, name="syn.input") \
                 .map(lambda x: (x, random.random()), name="syn.nondet")
        assert rdd is not None
        findings, summary = run_closure_rules("synthetic", ctx)
        rules = {f.rule_id for f in findings}
        assert "DECA202" in rules, "static detection failed"
        assert "DECA211" in rules, "differential detection failed"
        assert summary["udfs_nondeterministic"] >= 1
        assert summary["double_run_mismatches"] >= 1

    def test_deterministic_udf_never_diverges(self):
        """A double-run never contradicts a deterministic verdict."""
        ctx = self.make_ctx()
        ctx.parallelize(list(range(64)), 4, name="det.input") \
           .map(lambda x: (x % 4, x * x), name="det.square")
        findings, summary = run_closure_rules("synthetic", ctx)
        assert not any(f.rule_id == "DECA211" for f in findings)
        assert summary["double_run_mismatches"] == 0
        assert summary["double_runs"] >= 1
