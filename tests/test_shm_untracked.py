"""Untracked shared-memory segments (``repro.exec.shm``).

The mp data plane maps its segments with ``shm_open`` + ``mmap`` and
unlinks them by name from the driver's registry; no mapping is sent
through the stdlib resource tracker, and ``repro.exec`` never imports
``multiprocessing.shared_memory`` (whose ``secrets`` → ``hashlib`` import
chain loads OpenSSL into the driver and every worker).  Both properties
need a fresh interpreter, so each test runs a script in a subprocess.
"""

import os
import subprocess
import sys

import pytest

from repro.exec.shm import shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")

PAGERANK = """
from repro.apps.pagerank import run_pagerank
from repro.config import DecaConfig, ExecutionMode

EDGES = ([(i, (i * 7 + 3) % 60) for i in range(60)]
         + [(i, (i + 1) % 60) for i in range(60)])


def pagerank(backend):
    return run_pagerank(EDGES, DecaConfig(mode=ExecutionMode.DECA,
                                          execution_backend=backend,
                                          num_executors=2, mp_workers=2,
                                          mp_stage_timeout_s=30.0),
                        iterations=3, num_partitions=4)
"""

NO_TRACKER_SCRIPT = PAGERANK + """
from multiprocessing import resource_tracker
from repro.spark import DecaContext

# The backend starts the driver's tracker; then every message to it fails,
# in the driver and (by inheritance of the class) in every forked worker.
DecaContext(DecaConfig(execution_backend="mp", num_executors=2,
                       mp_workers=2)).finish()


def refuse(self, cmd, name, rtype):
    raise AssertionError(f"resource tracker {cmd} {name} {rtype}")


resource_tracker.ResourceTracker._send = refuse
try:
    resource_tracker.register("repro-probe", "shared_memory")
except AssertionError:
    pass
else:
    raise SystemExit("the tracker patch did not take")

sim = pagerank("sim")
run = pagerank("mp")
assert run.result == sim.result
assert run.metrics.backend["segments_created"] > 0
assert run.metrics.backend["worker_deaths"] == 0
failures = sum(job.recovery.task_failures for job in run.metrics.jobs)
assert failures == 0, failures
print("ok", run.metrics.backend["segments_created"])
"""

MODULES_SCRIPT = PAGERANK + """
import sys

run = pagerank("mp")
assert run.metrics.backend["segments_created"] > 0
loaded = sorted({"multiprocessing.shared_memory", "_hashlib"}
                & set(sys.modules))
assert not loaded, loaded
print("ok")
"""

FIXTURES_SCRIPT = """
import sys
from repro.lint.fixtures.drivers import run_fixtures

rows = run_fixtures()
assert all(row["fired"] for row in rows), rows
loaded = sorted({"multiprocessing.shared_memory",
                 "multiprocessing.resource_tracker"} & set(sys.modules))
assert not loaded, loaded
print("ok", len(rows))
"""


def run_script(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_mp_job_sends_nothing_to_the_resource_tracker():
    """Every segment create, attach and unlink bypasses the tracker: a
    tracker that refuses every message leaves PageRank's answer, and its
    task-failure count, exactly as without one."""
    done = run_script(NO_TRACKER_SCRIPT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok")


def test_mp_job_loads_neither_stdlib_shared_memory_nor_openssl():
    """The driver's peak RSS: an mp job imports neither
    ``multiprocessing.shared_memory`` nor the ``_hashlib`` it drags in."""
    done = run_script(MODULES_SCRIPT)
    assert done.returncode == 0, done.stdout + done.stderr


def test_seeded_fixtures_use_the_engines_untracked_segments():
    """The DECA401/DECA408 fixtures map their segments with
    ``repro.exec.shm`` like the engine does: driving every fixture
    neither imports the stdlib's shared memory nor starts its tracker."""
    done = run_script(FIXTURES_SCRIPT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok")
