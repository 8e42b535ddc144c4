"""Worker trace relay under the mp backend (``repro.exec``).

Satellite of the backend PR: worker-side tracer events cross the result
queue with the task output, get re-anchored on the driver's timeline and
re-parented under the same executor trace pids the sim backend uses —
one deterministic, single-file Chrome trace per run, whichever backend
executed it.
"""

import json

import pytest

from repro.config import DecaConfig, ExecutionMode, FaultConfig, \
    ScriptedFault
from repro.exec.shm import shm_available
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.spark import DecaContext

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")

NUM_EXECUTORS = 2


def run_wc(faults=None, records=1200, keys=25):
    kwargs = dict(mode=ExecutionMode.DECA, execution_backend="mp",
                  num_executors=NUM_EXECUTORS, tasks_per_executor=2)
    if faults is not None:
        kwargs["faults"] = faults
    ctx = DecaContext(DecaConfig(**kwargs))
    data = [(i % keys, 1) for i in range(records)]
    ctx.parallelize(data, 4, name="tr.pairs") \
       .reduce_by_key(lambda a, b: a + b, 4, name="tr.counts") \
       .collect()
    ctx.finish()
    return ctx.tracer


def structural(tracer, categories=("task", "mp")):
    """The order-and-identity skeleton of a trace, timestamps dropped.

    mp wall times are real time, so only the *structure* is reproducible
    across runs — which events, in which order, on which process rows."""
    return [(e.name, e.category, e.phase, e.pid,
             e.args.get("status"), e.args.get("backend"))
            for e in tracer.events if e.category in categories]


class TestWorkerEventRelay:
    def test_task_spans_reach_the_driver_tracer(self):
        tracer = run_wc()
        tasks = tracer.by_category("task")
        # 2 stages x 4 partitions, no retries.
        assert len(tasks) == 8
        assert {e.args["backend"] for e in tasks} == {"mp"}
        assert all(e.args["status"] == "success" for e in tasks)

    def test_events_reparented_to_executor_pids(self):
        """Worker processes have real OS pids, but their spans land on
        the executor rows (pid = executor_id + 1) — indistinguishable
        from a sim trace's layout."""
        tracer = run_wc()
        tasks = tracer.by_category("task")
        assert {e.pid for e in tasks} == \
            set(range(1, NUM_EXECUTORS + 1))
        for event in tasks:
            worker_pid = event.args["worker_pid"]
            assert worker_pid != event.pid   # a real forked process

    def test_events_reanchored_on_stage_start(self):
        """Worker clocks start at zero on fork; relayed spans must sit
        inside the run's timeline, monotonically by stage."""
        tracer = run_wc()
        stages = {}
        for event in tracer.by_category("task"):
            stages.setdefault(event.args["stage_id"], []).append(event)
        assert sorted(stages) == [0, 1]
        stage0_end = max(e.end_ticks for e in stages[0])
        assert all(e.ts_ticks >= 0 for e in stages[0])
        assert all(e.ts_ticks >= stage0_end for e in stages[1])

    def test_mp_stage_markers_present(self):
        tracer = run_wc()
        markers = tracer.by_category("mp")
        assert [e.name for e in markers] == ["mp:stage:0", "mp:stage:1"]
        assert all(e.args["workers"] == NUM_EXECUTORS for e in markers)

    def test_failed_attempts_traced_with_status(self):
        tracer = run_wc(faults=FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=2,
                          after_ops=4),)))
        spans = [e for e in tracer.by_category("task")
                 if e.args["task_id"] == 2 and e.args["stage_id"] == 0]
        assert [(e.args["attempt"], e.args["status"]) for e in spans] == \
            [(0, "killed"), (1, "success")]


class TestDeterminism:
    def test_two_runs_have_identical_structure(self):
        assert structural(run_wc()) == structural(run_wc())

    def test_retry_structure_is_deterministic(self):
        faults = FaultConfig(scripted=(
            ScriptedFault("task-kill", stage_id=0, partition=1,
                          after_ops=3),))
        assert structural(run_wc(faults=faults)) == \
            structural(run_wc(faults=faults))


class TestSingleFileExport:
    def test_chrome_trace_holds_every_process(self, tmp_path):
        tracer = run_wc()
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events if e.get("cat") == "task"}
        assert pids == set(range(1, NUM_EXECUTORS + 1))
        # One file, driver rows and executor rows together.
        assert chrome_trace(tracer)["traceEvents"]
