"""Every module under ``src/repro`` is reached from something that runs.

An ``ast`` walk of the import graph.  The roots are the things a user or
CI executes — ``benchmarks/``, ``examples/``, ``scripts/`` and the
``python -m repro.bench`` entry point; ``tests/`` never counts, so a
module only its own tests import is dead code with a test suite.

A module is *reached* when a reached non-``__init__`` module imports it
directly, or imports from its package a **name** that the package
``__init__`` re-exports from it.  A bare re-export nobody uses by name
does not count: that is exactly how dead modules hide.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ROOT_DIRS = ("benchmarks", "examples", "scripts")
ROOT_MODULES = ("repro.bench.__main__",)

def _modules() -> dict[str, Path]:
    """Dotted name -> file, for every module and package under src/repro
    (a package is named by its ``__init__``)."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _imports(path: Path, module: str | None) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import statement in *path*, relative
    imports resolved against *module*; ``name`` is ``None`` for a plain
    ``import x.y``."""
    package = None
    if module is not None:
        package = module if _is_package(module) \
            else module.rpartition(".")[0]
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue    # a root script's sibling, never repro
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            out.extend((base, alias.name) for alias in node.names)
    return out


def _targets(module: str, name: str | None) -> list[str]:
    """The repro modules one import reaches."""
    if not module.startswith("repro"):
        return []
    if name is None:
        return [module] if module in MODULES else []
    submodule = f"{module}.{name}"
    if submodule in MODULES:
        return [submodule]          # ``from package import module``
    if not _is_package(module):
        return [module] if module in MODULES else []
    # A name the package __init__ re-exports: reach where it comes from.
    return [target
            for source, exported in _imports(MODULES[module], module)
            if exported == name
            for target in _targets(source, exported)] or [module]


def _reached() -> set[str]:
    reached: set[str] = set()
    pending: list[tuple[Path, str | None]] = [
        (path, None) for root in ROOT_DIRS
        for path in sorted((REPO / root).rglob("*.py"))]
    for name in ROOT_MODULES:
        reached.add(name)
        pending.append((MODULES[name], name))
    while pending:
        path, module = pending.pop()
        for source, name in _imports(path, module):
            for target in _targets(source, name):
                if target in reached:
                    continue
                reached.add(target)
                # Reaching a package by name reaches nothing behind it:
                # its __init__ is never walked as an importer.
                if not _is_package(target):
                    pending.append((MODULES[target], target))
    return reached


def test_every_module_is_reached():
    reached = _reached()
    unreached = sorted(
        name for name in MODULES
        if name not in reached and not _is_package(name))
    assert unreached == [], (
        "modules nothing but tests (or a bare package re-export) imports: "
        f"{unreached}")


def test_the_walk_resolves_names_through_package_inits():
    """``repro.lint.output`` is imported by nobody directly: the CLI
    imports ``serialize`` from ``repro.lint``, whose ``__init__``
    re-exports it from ``.output``."""
    assert _targets("repro.lint", "serialize") == ["repro.lint.output"]
    assert _targets("repro.obs", "chrome_trace") == ["repro.obs.export"]
    assert _targets("repro.lint", "rules") == ["repro.lint.rules"]
