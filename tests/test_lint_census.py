"""The lint's subject census: every DECA30x/DECA40x rule must have a
checker that can fire on the engine.

A rule is checked by one or both of:

* a **static predicate** — counted by its *static subjects*: audited
  engine functions that carry the precondition the predicate tests
  before it can fire (an op kind the function itself contributes to its
  enumerated paths, or a function flag), counted with the lint's own
  lowerers and path enumeration;
* a **runtime checkpoint** — engine call sites, outside ``repro.lint``,
  of a method of the runtime :class:`~repro.obs.sanitizer.Sanitizer`
  (receiver ``sanitizer``, the name the lowerers skip) that can record
  its slug.

A rule checked at runtime only names its **guard tests**: the tier-1
tests that fail when its bug is seeded into each of its engine
subjects.  The census fails for a rule with no checker, for a
runtime-only rule without guard tests, for a guard test that does not
exist, and for a rule with no row in :data:`CENSUS` (a new rule arrives
with its row).  ``docs/static_analysis.md`` ("Rule census") carries the
counts and is checked against them.
"""

import ast
import inspect
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

import repro
from repro.lint.borrow import (
    ENGINE_MODULES,
    SANITIZER,
    _enumerate_paths,
    lower_module,
)
from repro.lint.fixtures.drivers import FIXTURES
from repro.lint.race import RACE_MODULES, lower_race_module
from repro.obs.rules import RULES, RULES_BY_ID
from repro.obs.sanitizer import BORROW_SLUGS, RACE_SLUGS, Sanitizer

ROOT = Path(repro.__file__).resolve().parent
REPO = ROOT.parent.parent

#: The audited rule ids, in catalogue order.
AUDITED = tuple(rule.rule_id for rule in RULES
                if rule.rule_id.startswith(("DECA3", "DECA4")))

#: ``(model, own op kinds) -> bool``: the function can fire the predicate.
Precondition = Callable[[object, set], bool]


def _op(*kinds) -> Precondition:
    """Precondition: the function itself emits one of *kinds*."""
    return lambda model, ops: not ops.isdisjoint(kinds)


@dataclass(frozen=True)
class Checkers:
    """How one rule is checked."""

    #: The static predicate's precondition; ``None`` = runtime only.
    static: Optional[Precondition]
    #: The sanitizer methods that can record the rule's slug.
    runtime: tuple[str, ...]
    #: Tier-1 tests that fail on the rule's bug seeded into each static
    #: subject it had (``docs/static_analysis.md`` lists the mutations).
    guards: tuple[str, ...] = ()


CENSUS = {
    "DECA301": Checkers(_op("EXPORT"), ("export", "free")),
    "DECA302": Checkers(_op("EXPORT"), ("export", "free")),
    "DECA303": Checkers(_op("FREE", "UNLINK", "SEGRELEASE"), ("free",)),
    # MmapColdTier.promote_group
    "DECA304": Checkers(None, ("check_finish",), guards=(
        "tests/test_sql_engine.py::TestColdTierSwap::"
        "test_bulk_kernels_leave_no_view_behind",
    )),
    # PageStoreTier._grow
    "DECA305": Checkers(None, ("note_remap",), guards=(
        "tests/test_memory_tier.py::TestExtentAllocation::"
        "test_growth_preserves_exported_views",
    )),
    "DECA306": Checkers(lambda model, ops: model.is_teardown,
                        ("check_finish",)),
    # HeapColdTier.demote_group
    "DECA308": Checkers(None, ("check_finish",), guards=(
        "tests/test_config_matrix.py::test_cell_matches_reference"
        "[lr-deca-sim-heap-static]",
    )),
    "DECA401": Checkers(_op("UNLINK", "ATTACH"),
                        ("export", "free", "absorb")),
    "DECA402": Checkers(
        lambda race, ops: race.class_uses_lock and not ops.isdisjoint(
            {"REFMUT_LOCKED", "REFMUT_UNLOCKED"}), ("note_refdec",)),
    "DECA404": Checkers(_op("POOL_READ"), ("pool_write",)),
    "DECA405": Checkers(_op("CONSUME"), ("note_result_consumed",)),
    # MpBackend._retire
    "DECA406": Checkers(None, ("note_sweep",), guards=(
        "tests/test_exec_lifecycle.py::TestNothingOutlivesTheJob::"
        "test_fault_inside_a_co_partitioned_join[executor-crash]",
    )),
    # StaticMemoryArena._make_room and release_for_pressure
    "DECA407": Checkers(None, ("note_victim",), guards=(
        "tests/test_cache_swap_details.py::TestReentrantEvictionGuard::"
        "test_reentrant_admission_cannot_revictimize_the_evicting_entry",
        "tests/test_memory_unified.py::"
        "test_engine_call_sequence_on_either_arena[static]",
    )),
    # attach_page_group and read_segment_records
    "DECA408": Checkers(None, ("verify_readonly",), guards=(
        "tests/test_config_matrix.py::test_cell_matches_reference"
        "[wc-deca-mp-heap-static]",
        "tests/test_sanitizer_engine.py::"
        "test_mp_worker_write_through_a_shuffle_segment_is_caught",
    )),
    # MpBackend._flush
    "DECA409": Checkers(None, ("note_relay",), guards=(
        "tests/test_exec_trace.py::TestWorkerEventRelay::"
        "test_events_reanchored_on_stage_start",
    )),
    # Executor.begin_task
    "DECA410": Checkers(None, ("note_grant", "check_finish"), guards=(
        "tests/test_memory_unified.py::TestUnifiedEndToEnd::"
        "test_task_slots_drain_after_run",
        "tests/test_sanitizer_engine.py::"
        "test_leaked_task_slot_is_reported_at_finish",
    )),
}

RUNTIME_ONLY = tuple(rule for rule in AUDITED
                     if rule in CENSUS and CENSUS[rule].static is None)


def _own_ops(body) -> set[str]:
    return {op.kind for ops, _term in _enumerate_paths(body)
            for op in ops if op.depth == 0}


def _lowered(modules, lower):
    return [model for module, relpath in modules
            for model in lower((ROOT / relpath).read_text(), module, relpath)]


def _engine_calls() -> Counter:
    """method -> call sites in ``src/repro`` outside ``repro.lint`` on
    a ``sanitizer`` receiver."""
    calls: Counter = Counter()
    for path in sorted(ROOT.rglob("*.py")):
        if (ROOT / "lint") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            recv = node.func.value
            name = (recv.attr if isinstance(recv, ast.Attribute)
                    else getattr(recv, "id", None))
            if name == SANITIZER:
                calls[node.func.attr] += 1
    return calls


def count_census() -> dict[str, tuple[Optional[int], int]]:
    """rule -> (static subjects, runtime checkpoints); static subjects
    are ``None`` for a runtime-only rule, and a rule the census has no
    row for reads ``(None, 0)``."""
    borrow = [(model, _own_ops(model.method.body))
              for model in _lowered(ENGINE_MODULES, lower_module)]
    race = [(model, _own_ops(model.func.method.body))
            for model in _lowered(RACE_MODULES, lower_race_module)]
    calls = _engine_calls()
    counts: dict[str, tuple[Optional[int], int]] = {}
    for rule_id in AUDITED:
        if rule_id not in CENSUS:
            counts[rule_id] = (None, 0)
            continue
        row = CENSUS[rule_id]
        models = borrow if rule_id.startswith("DECA3") else race
        subjects = (None if row.static is None else
                    sum(1 for model, ops in models if row.static(model, ops)))
        counts[rule_id] = (subjects, sum(calls[m] for m in row.runtime))
    return counts


@pytest.fixture(scope="module")
def census():
    return count_census()


@pytest.mark.parametrize("rule_id", AUDITED)
def test_rule_has_a_subject(rule_id, census):
    subjects, checkpoints = census[rule_id]
    assert subjects or checkpoints, (
        f"{rule_id} ({RULES_BY_ID[rule_id].name}) has no static subject "
        "and no runtime checkpoint in the engine: no checker can fire "
        "on the engine, only its fixture")


@pytest.mark.parametrize("rule_id", RUNTIME_ONLY)
def test_runtime_only_rule_names_its_guard_tests(rule_id):
    assert CENSUS[rule_id].guards, (
        f"{rule_id} has no static predicate and names no test that "
        "catches its bug in the engine")


def _test_exists(test_id: str) -> bool:
    """``path::[Class::]function[param]`` names a test function."""
    path, *names = test_id.split("::")
    file = REPO / path
    if not names or not file.is_file():
        return False
    names[-1] = names[-1].split("[")[0]
    scope = ast.parse(file.read_text()).body
    for name in names:
        node = next((n for n in scope
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return isinstance(node, ast.FunctionDef) and node.name.startswith("test")


@pytest.mark.parametrize("test_id", sorted({
    guard for row in CENSUS.values() for guard in row.guards}))
def test_guard_test_exists(test_id):
    assert _test_exists(test_id), test_id


def test_guard_lookup_rejects_a_missing_test():
    assert _test_exists("tests/test_lint_census.py::test_guard_test_exists")
    assert not _test_exists("tests/test_lint_census.py::test_no_such_test")
    assert not _test_exists("tests/no_such_file.py::test_x")


def _docs_table() -> dict[str, tuple[Optional[int], int]]:
    """rule -> (static subjects, runtime checkpoints) as the "Rule
    census" table in ``docs/static_analysis.md`` states them."""
    text = (REPO / "docs" / "static_analysis.md").read_text()
    table = text.split("\n| Rule | Checkers |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        rule, _checkers, _pre, static, runtime = (
            cell.strip() for cell in line.strip("|").split("|"))
        rows[rule] = (None if static == "—" else int(static),
                      int(re.match(r"\d+", runtime).group()))
    return rows


def test_docs_census_table_matches_the_count(census):
    assert _docs_table() == census


def test_checking_methods_can_record_the_rules_slug():
    for rule_id, row in CENSUS.items():
        slug = RULES_BY_ID[rule_id].name
        for method in row.runtime:
            source = inspect.getsource(getattr(Sanitizer, method))
            assert f'"{slug}"' in source, (rule_id, method)


def test_fixtures_list_exactly_the_audited_rules_in_order():
    """A rule cannot be added or dropped without its runtime fixture."""
    assert [rule for rule, _drive in FIXTURES] == list(AUDITED)
    by_family = {"DECA3": BORROW_SLUGS, "DECA4": RACE_SLUGS}
    for family, slugs in by_family.items():
        assert tuple(RULES_BY_ID[rule].name for rule, _drive in FIXTURES
                     if rule.startswith(family)) == slugs
