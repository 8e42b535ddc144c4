"""Seeded-bug fixtures proving every borrow and race rule live.

Each function in :mod:`repro.lint.fixtures.borrow_bugs` contains exactly
one deliberate zero-copy lifetime bug (DECA301–DECA308), and each in
:mod:`repro.lint.fixtures.race_bugs` one protocol race (DECA401–DECA410).
``python -m repro.bench sanitize`` runs each against a real tier /
registry and a live :class:`~repro.obs.sanitizer.Sanitizer` to prove the
runtime sanitizer trips on it; :mod:`repro.lint.fixtures.drivers` holds
the one driver table and runner for both families.  The static tests
assert that the checkers flag the fixture of each rule that keeps a
static predicate with exactly that rule, and the fixtures of the
runtime-only rules with nothing.

These modules are *never* imported by the engine — they exist only as
checker and sanitizer targets.
"""
