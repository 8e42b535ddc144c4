"""What the engine imports, in a fresh interpreter.

Every benchmarked run and every ``python -m repro.bench`` command starts
by importing the engine, and without cached bytecode each module loaded
is source compiled.  ``repro.analysis`` serves its lint-side names
(``explain``, ``phased``, ``pointsto``, ``closures``) on first access,
``repro.sql`` its text parser, and the runtime sanitizer loads only in a
run that turns it on.  Each check needs an interpreter that has imported
nothing yet, so each runs a script in a subprocess.
"""

import os
import subprocess
import sys

LAZY = ("repro.analysis.explain", "repro.analysis.phased",
        "repro.analysis.pointsto", "repro.analysis.closures",
        "repro.obs.sanitizer", "repro.sql.parser")

ENGINE_IMPORT = f"""
import sys
import repro.apps.wordcount, repro.apps.sql_queries

loaded = sorted(name for name in sys.modules
                if name in {LAZY!r} or name.startswith("repro.lint"))
assert not loaded, loaded
print("ok")
"""

DECA_LR_CACHE = """
import sys
from repro.apps.logistic_regression import run_logistic_regression
from repro.config import DecaConfig, ExecutionMode
from repro.data import labeled_points

assert "repro.analysis.closures" not in sys.modules
run = run_logistic_regression(labeled_points(200, 4, seed=3),
                              DecaConfig(mode=ExecutionMode.DECA),
                              iterations=2, num_partitions=2)
# Planning the deca cache asks the closure analyzer whether the UDF that
# consumes the cached records lets one escape.
assert "repro.analysis.closures" in sys.modules
assert "repro.obs.sanitizer" not in sys.modules
print("ok", len(run.result))
"""

PUBLIC_NAMES = """
import importlib

for package in ("repro.analysis", "repro.sql"):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, (package, name)
from repro.analysis import closures, Phase, render_provenance
from repro.analysis.explain import render_provenance as direct
assert render_provenance is direct
from repro.sql import parse
assert parse("SELECT pageURL FROM rankings").table == "rankings"
try:
    from repro.analysis import no_such_name
except ImportError:
    pass
else:
    raise SystemExit("an unknown name resolved")
print("ok")
"""


def run_script(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_engine_import_loads_no_lint_side_module():
    done = run_script(ENGINE_IMPORT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok")


def test_deca_cache_plan_loads_the_closure_analyzer():
    """``closures`` is not lint-only: the optimizer runs it when it plans
    a deca cache, so it loads inside the first such job."""
    done = run_script(DECA_LR_CACHE)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok")


def test_every_public_name_resolves():
    done = run_script(PUBLIC_NAMES)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok")
