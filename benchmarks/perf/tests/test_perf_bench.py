"""Self-tests of the benchmark (``pytest benchmarks/perf/tests``).

They drive the real command at ``--scale 0.05`` so that a full set with
tracing takes seconds, and check the instrument rather than the engine:
names and units, failure accounting, span arithmetic, wrapper removal,
environment isolation.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import cli, spec, tracing

ROOT = spec.ROOT
SCALE = "0.05"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_cli(*args: str, cwd: str = ROOT, script: bool = False,
            **extra_env: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **extra_env,
           "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), ROOT])}
    head = ([sys.executable, os.path.join("benchmarks", "perf", "run.py")]
            if script else [sys.executable, "-m", "benchmarks.perf"])
    return subprocess.run(head + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def full_set(tmp_path_factory):
    """One traced full set, started with every REPRO_* switch flipped."""
    tmp = tmp_path_factory.mktemp("perf")
    out = tmp / "BENCH_perf.json"
    proc = run_cli("--seed", "1", "--scale", SCALE, "--seconds", "0.2",
                   "--trace", "--out", str(out),
                   "--trace-dir", str(tmp / "traces"),
                   REPRO_EXECUTION_BACKEND="mp", REPRO_MP_WORKERS="3",
                   REPRO_COLD_TIER="mmap", REPRO_SANITIZE="1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as handle:
        return proc, json.load(handle), tmp / "traces"


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])


def test_every_named_workload_and_metric_is_reported(manifest, full_set):
    proc, document, _ = full_set
    results = document["results"]
    assert sorted(results) == sorted(w["name"] for w in manifest["workloads"])
    for name, entry in results.items():
        for section, key in (("end_to_end", "end_to_end"),
                             ("per_layer", "per_layer")):
            named = {m["name"]: m["unit"] for m in manifest[section]}
            got = {metric: value["unit"]
                   for metric, value in entry[key].items()}
            assert got == named, name        # nothing missing, nothing unnamed
            for metric, value in entry[key].items():
                assert isinstance(value["value"], (int, float)), metric
        assert entry["failed"] == 0 and entry["failed_frac"] == 0, entry["notes"]
        assert all(entry["end_to_end"][m]["value"] > 0
                   for m in entry["end_to_end"])
        assert name in proc.stdout
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                         rf"{re.escape(metric['unit'])}\b",
                         proc.stdout, re.M), metric["name"]
    assert "failed_frac" in proc.stdout


def test_environment_switches_do_not_reach_the_workloads(full_set):
    _, document, _ = full_set
    config = document["results"]["lr-cache-scan"]["end_to_end_info"]["config"]
    assert config["execution_backend"] == "sim"
    assert config["cold_tier"] == "heap" and config["sanitize"] is False
    config = document["results"]["pr-mp"]["end_to_end_info"]["config"]
    assert config["execution_backend"] == "mp" and config["mp_workers"] == 2
    env = cli.child_env("/nowhere")
    assert not set(cli.SCRUBBED_ENV) & set(env)


def test_layers_separate_as_the_workloads_intend(full_set):
    _, document, _ = full_set
    layer = {name: {metric: value["value"]
                    for metric, value in entry["per_layer"].items()}
             for name, entry in document["results"].items()}
    for name, metrics in layer.items():
        mp = name == "pr-mp"
        assert (metrics["exec.mp.tasks"] > 0) == mp
        assert (metrics["exec.shm.segments_created"] > 0) == mp
        assert (metrics["exec.shm.pack_self_s"] > 0) == mp
        assert (metrics["sql.engine.scan_ms"] > 0) == (name == "sql-suite")
    for name in ("lr-cache-scan", "lr-object-cache", "lr-swap-mmap",
                 "sql-suite"):
        assert layer[name]["spark.shuffle.records_written"] == 0
    assert layer["lr-object-cache"]["memory.page.append_calls"] == 0
    assert layer["lr-object-cache"]["memory.page.scan_self_s"] == 0
    assert layer["lr-cache-scan"]["memory.page.scan_self_s"] > 0
    assert layer["wc-shuffle"]["spark.shuffle.records_written"] > 0


def test_span_self_times_sum_to_the_job_span(full_set):
    _, document, _ = full_set
    for name, entry in document["results"].items():
        info = entry["per_layer_info"]
        assert 0 < info["job_self_sum_s"] <= info["job_span_s"] * (1 + 1e-9), name
        assert info["wrappers_left"] == 0 and info["missing_targets"] == []


def test_trace_is_chrome_trace_event_json(full_set):
    _, document, traces = full_set
    for name, entry in document["results"].items():
        path = os.path.normpath(os.path.join(
            ROOT, entry["per_layer_info"]["trace_file"]))
        assert os.path.dirname(path) == str(traces)
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and trace["metadata"]["workload"] == name
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"span", "parent", "job", "self_us"} <= set(event["args"])
        assert any(e["name"] == "job" and e["args"]["parent"] == -1
                   for e in spans)
    with open(traces / "trace_sql-suite_seed1.json", encoding="utf-8") as handle:
        alone = {e["pid"] for e in json.load(handle)["traceEvents"]}
    assert len(alone) == 1                     # sql-suite forks nothing
    with open(traces / "trace_pr-mp_seed1.json", encoding="utf-8") as handle:
        workers = {e["pid"] for e in json.load(handle)["traceEvents"]}
    assert len(workers) > 2                    # the driver and its waves


def test_wrong_reference_is_a_failed_run():
    proc = run_cli("--workload", "wc-shuffle", "--seed", "1", "--scale", SCALE,
                   "--seconds", "0.2", "--trace", "0", "--corrupt-reference",
                   script=True)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_second_seed_changes_inputs_not_metric_names(manifest):
    from benchmarks.perf.workloads import WORKLOADS
    for workload in WORKLOADS.values():
        assert workload.generate(1, 0.05) != workload.generate(2, 0.05)
        assert workload.generate(1, 0.05) == workload.generate(1, 0.05)
    names = []
    for seed in ("1", "2"):
        proc = run_cli("--workload", "sql-suite", "--seed", seed, "--scale",
                       SCALE, "--seconds", "0.2", "--trace", "0", script=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1] == sorted(
        m["name"] for m in manifest["end_to_end"])


def test_without_the_engine_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "perf"),
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "wc-shuffle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


# -- the tracing module on its own -------------------------------------------

def test_self_time_arithmetic_across_span_kinds():
    recorder = tracing.Recorder()

    def leaf():
        return sum(range(200))

    def numbers():
        for _ in range(5):
            leaf_merged()
            yield 1

    def outer():
        return sum(stream()) + leaf_exact()

    leaf_merged = tracing._spanned(recorder, "leaf.merged", leaf, None,
                                   merge=True)
    leaf_exact = tracing._spanned(recorder, "leaf.exact", leaf, None)
    stream = tracing._stream(recorder, "numbers.stream", numbers, None)
    outer_span = tracing._spanned(recorder, "outer", outer, None)
    with recorder.root("job", 1):
        outer_span()
        outer_span()
    rows = recorder.spans
    job = rows[0]
    assert job[tracing.NAME] == "job" and job[tracing.PARENT] == -1
    total_self = sum(row[tracing.BUSY] - row[tracing.CHILD] for row in rows)
    assert total_self == pytest.approx(job[tracing.BUSY], rel=1e-9)
    assert all(row[tracing.BUSY] - row[tracing.CHILD] >= -1e-12
               for row in rows)
    totals = tracing.totals_by_name(rows)
    assert totals["leaf.merged"]["calls"] == 10     # two rows of five calls
    assert totals["numbers.stream"]["items"] == 10
    assert totals["outer"]["calls"] == 2
    merged = [row for row in rows if row[tracing.NAME] == "leaf.merged"]
    assert len(merged) == 2 and all(row[tracing.JOB] == 1 for row in rows)


def test_wrappers_are_fully_uninstalled():
    import repro.exec.mp
    import repro.exec.worker
    import repro.memory.page
    import repro.spark.measure
    import repro.spark.shuffle

    def snapshot():
        return (repro.exec.worker.worker_main, repro.exec.mp.worker_main,
                repro.memory.page.PageGroup.append_record,
                repro.spark.measure.measure_generic,
                repro.spark.shuffle.measure_generic,
                repro.spark.shuffle.read_reduce_partition)

    before = snapshot()
    installation = tracing.Installation(tracing.Recorder())
    with installation:
        during = snapshot()
        assert all(a is not b for a, b in zip(before, during, strict=True))
        assert installation.missing == []
    assert all(a is b for a, b in zip(before, snapshot(), strict=True))
    assert installation._patched == []


def test_vanished_targets_and_knobs_are_skipped_not_fatal():
    from benchmarks.perf.workloads import build_config
    config, dropped = build_config({"mode": "deca", "no_such_knob": 1})
    assert dropped == ["no_such_knob"] and config.mode.value == "deca"
    installation = tracing.Installation(tracing.Recorder())
    installation.install((tracing.Target(
        "repro.memory.page", "PageGroup.no_such_method", "memory.page",
        "exact"),))
    assert installation.missing == ["repro.memory.page:PageGroup.no_such_method"]
    installation.uninstall()


def test_leak_sweep_knows_the_engine_names(tmp_path):
    from repro.exec.shm import SEGMENT_PREFIX, manifest_path
    from repro.memory.tier import TIER_FILE_PREFIX
    assert cli.SEGMENT_PREFIX == SEGMENT_PREFIX
    assert cli.TIER_FILE_PREFIX == TIER_FILE_PREFIX
    assert os.path.basename(manifest_path(4242)).startswith(
        f"{cli.SEGMENT_PREFIX}-manifest-4242.")
    (tmp_path / f"{TIER_FILE_PREFIX}-4242-0.bin").write_bytes(b"x")
    (tmp_path / f"{TIER_FILE_PREFIX}-42420-0.bin").write_bytes(b"x")
    leaks = cli.sweep_leaks(4242, str(tmp_path))
    assert [os.path.basename(path) for path in leaks] == [
        f"{TIER_FILE_PREFIX}-4242-0.bin"]
    assert cli._account([{"attempted": 4, "failed": 0, "leaks": leaks}]) [:2] == (4, 1)
