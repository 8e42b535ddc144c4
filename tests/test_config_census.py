"""The configuration census: every option must have a caller.

A field of :class:`~repro.config.DecaConfig` or
:class:`~repro.config.FaultConfig` earns its place when code outside the
tests sets it: a call keyword (``DecaConfig(heap_bytes=...)``,
``with_options(...)``) or a string constant equal to its name (a
dict-literal key spread into a config, ``settings.setdefault(...)``),
anywhere in ``src/`` (``config.py`` itself excepted), ``benchmarks/``,
``examples/`` or ``scripts/``.  A field no such code sets is a constant
in disguise: it moves next to its reader, or it gets an :data:`EXEMPT`
row saying in one line why it stays an option.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.config import DecaConfig, FaultConfig

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "scripts")
DEFINITION = REPO / "src" / "repro" / "config.py"

FIELDS = tuple(sorted(field.name for cls in (DecaConfig, FaultConfig)
                      for field in dataclasses.fields(cls)))

#: Fields kept as options with no non-test setter, and why.
EXEMPT = {
    "mp_stage_timeout_s": "deployment setting: the mp hang-guard ceiling, "
                          "which tests lower to reach the timeout path",
    "serializer": "cost-model table; ROADMAP item 7 calibrates and labels it",
    "io": "cost-model table; ROADMAP item 7 calibrates and labels it",
    "cpu": "cost-model table; ROADMAP item 7 calibrates and labels it",
}


def find_setters() -> dict[str, list[str]]:
    """field -> ``path:line`` of every non-test setter."""
    names = set(FIELDS)
    setters: dict[str, list[str]] = {}
    for top in SCANNED:
        for path in sorted((REPO / top).rglob("*.py")):
            if path == DEFINITION:
                continue
            where = path.relative_to(REPO)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword):
                    name = node.arg
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    name = node.value   # dict-literal keys included
                else:
                    continue
                if name in names:
                    setters.setdefault(name, []).append(
                        f"{where}:{node.lineno}")
    return setters


@pytest.fixture(scope="module")
def setters():
    return find_setters()


@pytest.mark.parametrize("field", FIELDS)
def test_field_has_a_setter(field, setters):
    assert field in setters or field in EXEMPT, (
        f"no code outside tests/ sets {field!r}: make it a constant next "
        "to its reader, or give it an EXEMPT row")


def test_exemptions_are_current(setters):
    """An EXEMPT row names a live field that really has no setter."""
    for field, reason in EXEMPT.items():
        assert field in FIELDS, f"EXEMPT names a deleted field {field!r}"
        assert field not in setters, (field, setters.get(field))
        assert reason and "\n" not in reason
