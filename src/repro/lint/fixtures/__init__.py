"""Seeded-bug fixtures proving every borrow rule live.

Each function in :mod:`repro.lint.fixtures.borrow_bugs` contains exactly
one deliberate zero-copy lifetime bug.  The static test asserts the
borrow checker flags each with exactly its rule (DECA301–DECA308), and
``python -m repro.bench sanitize`` runs each against a real tier /
registry and a live :class:`~repro.obs.sanitizer.Sanitizer` to prove the
runtime sanitizer trips on the same bug
(:mod:`repro.lint.fixtures.race_bugs` does the same for DECA401–DECA410;
:mod:`repro.lint.fixtures.drivers` holds the one driver table and runner
for both families).

These modules are *never* imported by the engine — they exist only as
checker and sanitizer targets.
"""
