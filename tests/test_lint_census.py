"""The lint's subject census: every DECA30x/DECA40x rule must have
something in the engine to check.

A rule earns its lines through at least one of two things:

* **static subjects** — audited engine functions that carry the
  precondition its predicate tests before it can fire (an op kind the
  function itself contributes to its enumerated paths, or a function
  flag), counted with the lint's own lowerers and path enumeration;
* **runtime checkpoints** — engine call sites, outside ``repro.lint``,
  of a method of the rule's runtime twin (``ProvenanceLedger`` for
  DECA30x, ``VClockChecker`` for DECA40x) that can record its slug.

A rule with neither fires only on its seeded fixture, so it is deleted
together with the fixture and the twin.  A rule with no row in
:data:`CENSUS` has no recorded subject and fails the same way: a new rule
arrives with its row.  ``docs/static_analysis.md`` ("Rule census")
carries the counts.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.lint.borrow import ENGINE_MODULES, _enumerate_paths, lower_module
from repro.lint.findings import RULES, RULES_BY_ID
from repro.lint.fixtures.drivers import FIXTURES
from repro.lint.race import RACE_MODULES, lower_race_module
from repro.memory.provenance import VIOLATION_SLUGS, ProvenanceLedger
from repro.obs.vclock import RACE_SLUGS, VClockChecker

ROOT = Path(repro.__file__).resolve().parent

#: The audited rule ids, in catalogue order.
AUDITED = tuple(rule.rule_id for rule in RULES
                if rule.rule_id.startswith(("DECA3", "DECA4")))


def _op(*kinds):
    """Precondition: the function itself emits one of *kinds*."""
    return lambda model, ops: not ops.isdisjoint(kinds)


#: rule -> (static precondition over ``(model, own op kinds)``, the
#: twin's checking methods).
CENSUS = {
    "DECA301": (_op("EXPORT"), ("borrow", "note_free")),
    "DECA302": (_op("EXPORT"), ("borrow", "note_free")),
    "DECA303": (_op("FREE", "UNLINK", "SEGRELEASE"), ("note_free",)),
    "DECA304": (_op("ADOPT"), ("check_finish",)),
    "DECA305": (lambda model, ops: model.growlike, ("note_remap",)),
    "DECA306": (lambda model, ops: model.is_teardown, ("check_finish",)),
    "DECA308": (_op("DRAIN"), ("check_finish",)),
    "DECA401": (_op("UNLINK", "ATTACH"),
                ("note_attach", "note_access", "note_reclaim", "absorb")),
    "DECA402": (lambda race, ops: race.class_uses_lock and not ops.isdisjoint(
        {"REFMUT_LOCKED", "REFMUT_UNLOCKED"}), ("note_refdec",)),
    "DECA404": (_op("POOL_READ"), ("pool_write",)),
    "DECA405": (_op("CONSUME"), ("note_result_consumed",)),
    "DECA406": (_op("SWEEP"), ("note_sweep",)),
    "DECA407": (_op("SELECT"), ("note_victim",)),
    # Every ATTACH binds its handle read-only (the race lowerer's
    # ``_bind_segment(..., writable=False)``).
    "DECA408": (_op("ATTACH"), ("verify_readonly",)),
    "DECA409": (_op("RELAY_RAW", "RELAY_ANCHORED"), ("note_relay",)),
    "DECA410": (_op("GRANT"), ("note_grant",)),
}


def _twin(rule_id: str):
    """The runtime twin's class and the receiver name engine code uses."""
    if rule_id.startswith("DECA3"):
        return ProvenanceLedger, "ledger"
    return VClockChecker, "vclock"


def _own_ops(body) -> set[str]:
    return {op.kind for ops, _term in _enumerate_paths(body)
            for op in ops if op.depth == 0}


def _lowered(modules, lower):
    return [model for module, relpath in modules
            for model in lower((ROOT / relpath).read_text(), module, relpath)]


def _engine_calls() -> Counter:
    """``(receiver, method)`` -> call sites in ``src/repro`` outside
    ``repro.lint``, where the receiver is a ``ledger`` / ``vclock``."""
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
            if name in ("ledger", "vclock"):
                calls[name, node.func.attr] += 1
    return calls


def count_census() -> dict[str, tuple[int, int]]:
    """rule -> (static subjects, runtime checkpoints); (0, 0) for a rule
    the census has no row for."""
    borrow = [(model, _own_ops(model.method.body))
              for model in _lowered(ENGINE_MODULES, lower_module)]
    race = [(model, _own_ops(model.func.method.body))
            for model in _lowered(RACE_MODULES, lower_race_module)]
    calls = _engine_calls()
    counts = {}
    for rule_id in AUDITED:
        if rule_id not in CENSUS:
            counts[rule_id] = (0, 0)
            continue
        precondition, methods = CENSUS[rule_id]
        models = borrow if rule_id.startswith("DECA3") else race
        receiver = _twin(rule_id)[1]
        counts[rule_id] = (
            sum(1 for model, ops in models if precondition(model, ops)),
            sum(calls[receiver, method] for method in methods))
    return counts


@pytest.fixture(scope="module")
def census():
    return count_census()


@pytest.mark.parametrize("rule_id", AUDITED)
def test_rule_has_a_subject(rule_id, census):
    subjects, checkpoints = census[rule_id]
    assert subjects or checkpoints, (
        f"{rule_id} ({RULES_BY_ID[rule_id].name}) has no static subject "
        "and no runtime checkpoint in the engine: only its fixture can "
        "fire it")


def test_checking_methods_can_record_the_rules_slug():
    slugs = dict((rule, slug) for rule, slug, _drive in FIXTURES)
    for rule_id, (_precondition, methods) in CENSUS.items():
        twin = _twin(rule_id)[0]
        for method in methods:
            source = inspect.getsource(getattr(twin, method))
            assert f'"{slugs[rule_id]}"' in source, (rule_id, method)


def test_fixtures_list_exactly_the_audited_rules_in_order():
    """A rule cannot be added or dropped without its runtime fixture."""
    assert [rule for rule, _slug, _drive in FIXTURES] == list(AUDITED)
    for rule, slug, _drive in FIXTURES:
        assert slug == RULES_BY_ID[rule].name
    by_family = {"DECA3": VIOLATION_SLUGS, "DECA4": RACE_SLUGS}
    for family, slugs in by_family.items():
        assert tuple(slug for rule, slug, _drive in FIXTURES
                     if rule.startswith(family)) == slugs
