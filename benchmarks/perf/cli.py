"""The benchmark's driver process: spawn samples, account, report.

This process stays small on purpose — it never imports the engine —
because a child's ``ru_maxrss`` starts from its parent's resident size
at ``fork``.  Every sample is a fresh ``python -m benchmarks.perf.child``
in its own session, with the ``REPRO_*`` switches removed from its
environment and its temp dir inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from . import spec as spec_module

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = spec_module.ROOT
WORK = os.path.join(HERE, ".work")
RESULT_FILE = os.path.join(HERE, "results", "BENCH_perf.json")

#: Set-up is sampled in this many fresh processes per run (the timed
#: child plus set-up-only children); ``setup_s`` is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
GROUP_GRACE_S = 3.0
#: How often --check-repeat measures a disputed workload again.
REPEAT_EXTRA_ROUNDS = 2

#: ``DecaConfig`` defaults these select; a CI matrix leg that exports
#: one would silently turn a workload into a different one.
SCRUBBED_ENV = ("REPRO_EXECUTION_BACKEND", "REPRO_MP_WORKERS",
                "REPRO_COLD_TIER", "REPRO_SANITIZE")

#: What a run may leave behind, by creator pid: shared-memory segments
#: (repro.exec.shm.SEGMENT_PREFIX, in /dev/shm), the registry manifest
#: and mmap tier files (repro.memory.tier.TIER_FILE_PREFIX, in the temp
#: dir).  The same names scripts/check_mp_leaks.py looks for — scoped to
#: the benchmark's own children, because that script also greps the
#: host for every ``python -m pytest`` process and would count this
#: benchmark's self-tests or a concurrent tier-1 run as stray workers.
SHM_DIR = "/dev/shm"
SEGMENT_PREFIX = "repro-mp"
TIER_FILE_PREFIX = "repro-tier"

#: Counts that must repeat exactly between two runs of one checkout.
DETERMINISTIC = ("simtime.wall_ms", "jvm.heap.minor_gcs",
                 "jvm.heap.full_gcs", "jvm.heap.sim_gc_ms",
                 "exec.shm.segments_created", "memory.tier.bytes_moved_out")
#: Under the mp backend the engine's clocks follow real elapsed time.
REAL_CLOCK_UNDER_MP = ("simtime.wall_ms",)


def child_env(tmp_dir: str) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp_dir
    return env


def sweep_leaks(pid: int, tmp_dir: str) -> list[str]:
    """Files the (now dead) child *pid* left behind; removes them."""
    places = ((SHM_DIR, f"{SEGMENT_PREFIX}-{pid}-"),
              (tmp_dir, f"{TIER_FILE_PREFIX}-{pid}-"),
              (tmp_dir, f"{SEGMENT_PREFIX}-manifest-{pid}."))
    leaks = []
    for directory, prefix in places:
        if not os.path.isdir(directory):
            continue
        for entry in sorted(os.listdir(directory)):
            if entry.startswith(prefix):
                path = os.path.join(directory, entry)
                leaks.append(path)
                try:
                    os.unlink(path)
                except OSError:
                    pass
    return leaks


def kill_group(pgid: int, grace_s: float = 0.0) -> bool:
    """Kill whatever is left of a child's session; True if something was.

    *grace_s* lets helpers that exit on their own once the leader is gone
    (``multiprocessing``'s resource tracker) do so first.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def run_child(mode: str, workload: str, options: argparse.Namespace,
              run_dir: str, trace_out: str = "") -> dict[str, Any]:
    """One fresh-process sample; never raises on a child's failure."""
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    command = [sys.executable, "-m", "benchmarks.perf.child",
               "--workload", workload, "--mode", mode,
               "--seed", str(options.seed), "--scale", str(options.scale),
               "--seconds", str(options.seconds), "--work-dir", run_dir]
    if trace_out:
        command += ["--trace-out", trace_out]
    if options.corrupt_reference:
        command.append("--corrupt-reference")
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(tmp_dir),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    problem = ""
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"timed out after {CHILD_TIMEOUT_S} s"
        kill_group(proc.pid)
        stdout, _ = proc.communicate()
    leaks = sweep_leaks(proc.pid, tmp_dir)
    if kill_group(proc.pid, grace_s=GROUP_GRACE_S):
        leaks.append(f"process group {proc.pid} outlived its leader")
    out: dict[str, Any] = {}
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines and not problem:
        try:
            out = json.loads(lines[-1])
        except ValueError:
            problem = "child printed no JSON result"
    elif not problem:
        problem = f"child exited with status {proc.returncode}"
    out["leaks"] = leaks
    if problem:
        out["problem"] = f"{mode} child of {workload}: {problem}"
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    info = {"n": len(values), "min": min(values),
            "median": statistics.median(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        info.update(q1=q1, q3=q3)
    return info


def _account(samples: list[dict[str, Any]]) -> tuple[int, int, list[str]]:
    """Jobs attempted and failed over *samples*; a dead child or a leaked
    segment, tier file or process counts as a failed job."""
    attempted = failed = 0
    notes: list[str] = []
    for sample in samples:
        attempted += sample.get("attempted", 0)
        failed += sample.get("failed", 0)
        notes.extend(sample.get("errors", ()))
        if "problem" in sample:
            attempted += 1
            failed += 1
            notes.append(sample["problem"])
        for leak in sample["leaks"]:
            failed += 1
            notes.append(f"leaked {leak}")
    attempted = max(attempted, failed, 1)
    return attempted, failed, notes


def measure_end_to_end(workload: str, options: argparse.Namespace,
                       run_dir: str) -> dict[str, Any]:
    """The untraced run: one timed child plus set-up-only children."""
    timed = run_child("timed", workload, options, run_dir)
    setups = [run_child("setup", workload, options, run_dir)
              for _ in range(SETUP_SAMPLES - 1)]
    attempted, failed, notes = _account([timed, *setups])
    metrics: dict[str, float] = {}
    info: dict[str, Any] = {}
    setup_samples = [sample["setup_s"] for sample in (timed, *setups)
                     if "setup_s" in sample]
    if "job_wall_s" in timed and len(setup_samples) == SETUP_SAMPLES:
        metrics = {name: timed[name] for name in
                   ("job_wall_s", "job_cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup_samples)
        raw = timed["raw"]
        info = {"job_wall_s": quartiles(raw["job_wall_s"]),
                "job_cpu_s": quartiles(raw["job_cpu_s"]),
                "jobs_stable": raw["stable"],
                "kernel_s": quartiles([value for pair in raw["kernel_s"]
                                       for value in pair]),
                "setup_s": {"samples": setup_samples,
                            "raw": [sample["raw_setup_s"]
                                    for sample in (timed, *setups)]},
                "setup_parts": {key: timed[key] for key in
                                ("import_s", "generate_s", "open_s")},
                "sizes": timed["sizes"], "config": timed["config"],
                "dropped_settings": timed["dropped_settings"]}
    elif not failed:
        failed, notes = 1, notes + ["no timed job completed"]
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": failed, "notes": notes}


def measure_layers(workload: str, options: argparse.Namespace,
                   run_dir: str) -> dict[str, Any]:
    """The traced run: one child, every per-layer metric."""
    os.makedirs(options.trace_dir, exist_ok=True)
    trace_file = os.path.join(
        options.trace_dir, f"trace_{workload}_seed{options.seed}.json")
    traced = run_child("traced", workload, options, run_dir,
                       trace_out=trace_file)
    attempted, failed, notes = _account([traced])
    metrics = traced.get("metrics") or {}
    if not metrics and not failed:
        failed, notes = 1, notes + ["the traced job did not complete"]
    info = {key: traced[key] for key in (
        "baseline_wall_s", "traced_wall_s", "traced_factor", "job_span_s",
        "job_self_sum_s",
        "spans", "worker_processes", "layer_shares", "missing_targets",
        "wrappers_left", "config") if key in traced}
    info["trace_file"] = os.path.relpath(trace_file, ROOT)
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": failed, "notes": notes}


def with_units(metrics: dict[str, float],
               named: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Attach units; the computed names must be exactly the named ones."""
    if metrics and metrics.keys() != named.keys():
        missing = sorted(named.keys() - metrics.keys())
        unnamed = sorted(metrics.keys() - named.keys())
        raise SystemExit(f"benchmark bug: metrics missing {missing}, "
                         f"not in BENCHMARK.json {unnamed}")
    return {name: {"value": metrics[name], "unit": named[name]["unit"]}
            for name in named if name in metrics}


def print_metrics(title: str, metrics: dict[str, Any],
                  info: dict[str, Any]) -> None:
    print(title)
    for name, entry in metrics.items():
        line = f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}"
        spread = info.get(name)
        if isinstance(spread, dict) and "median" in spread:
            line += (f"   (raw: n={spread['n']}, min {spread['min']:.4g}, "
                     f"median {spread['median']:.4g}, "
                     f"q1 {spread.get('q1', 0):.4g}, "
                     f"q3 {spread.get('q3', 0):.4g})")
        print(line)


def run_one(workload: str, options: argparse.Namespace, spec: Any,
            run_dir: str, traced: bool) -> dict[str, Any]:
    """One run of one workload in the shape the builder contract reads."""
    if traced:
        outcome = measure_layers(workload, options, run_dir)
        named = spec.per_layer
    else:
        outcome = measure_end_to_end(workload, options, run_dir)
        named = spec.end_to_end
    outcome["metrics"] = with_units(outcome["metrics"], named)
    outcome["correct"] = outcome["failed"] == 0
    return outcome


def run_set(options: argparse.Namespace, spec: Any,
            run_dir: str) -> dict[str, Any]:
    """Every workload, end to end and (with ``--trace``) by layer."""
    results: dict[str, Any] = {}
    for workload, why in spec.workloads.items():
        end_to_end = run_one(workload, options, spec, run_dir, False)
        attempted, failed = end_to_end["attempted"], end_to_end["failed"]
        entry: dict[str, Any] = {
            "why": why, "end_to_end": end_to_end["metrics"],
            "end_to_end_info": end_to_end["info"],
            "notes": end_to_end["notes"]}
        print_metrics(f"\n{workload} — seed {options.seed}, "
                      f"{attempted} jobs", end_to_end["metrics"],
                      end_to_end["info"])
        if options.trace:
            layers = run_one(workload, options, spec, run_dir, True)
            attempted += layers["attempted"]
            failed += layers["failed"]
            entry.update(per_layer=layers["metrics"],
                         per_layer_info=layers["info"])
            entry["notes"] += layers["notes"]
            print_metrics(f"  per layer (trace: "
                          f"{layers['info']['trace_file']})",
                          layers["metrics"], {})
        entry.update(attempted=attempted, failed=failed,
                     failed_frac=failed / attempted)
        print(f"  {'failed_frac':<34} {entry['failed_frac']:>14.6g} "
              f"ratio   ({failed} of {attempted} jobs)")
        for note in entry["notes"]:
            print(f"  ! {note}")
        results[workload] = entry
    return results


def end_to_end_runs(entry: dict[str, Any]) -> dict[str, list[float]]:
    """Every end-to-end value measured for one workload of one set."""
    return entry.setdefault("end_to_end_runs", {
        name: [metric["value"]] for name, metric in entry["end_to_end"].items()})


def disputed_metrics(a: dict[str, Any], b: dict[str, Any],
                     spec: Any) -> list[str]:
    """End-to-end metrics on which two sets' medians are further apart
    than the metric's bound (one line each, empty when they agree)."""
    lines = []
    for name, named in spec.end_to_end.items():
        runs_a, runs_b = end_to_end_runs(a).get(name), end_to_end_runs(b).get(name)
        if not runs_a or not runs_b:
            lines.append(f"{name} missing")
            continue
        x, y = statistics.median(runs_a), statistics.median(runs_b)
        if abs(x - y) / min(x, y) > named["bound"]:
            lines.append(f"{name} {x:.6g} vs {y:.6g} is "
                         f"{abs(x - y) / min(x, y):.2%} apart "
                         f"(medians of {len(runs_a)})")
    return lines


def compare_sets(first: dict[str, Any], second: dict[str, Any],
                 spec: Any) -> list[str]:
    """Disagreements between two sets of one checkout (``--check-repeat``)."""
    problems = []
    for workload in spec.workloads:
        a, b = first[workload], second[workload]
        print(f"\n{workload}")
        for name, named in spec.end_to_end.items():
            runs_a = end_to_end_runs(a).get(name, [])
            runs_b = end_to_end_runs(b).get(name, [])
            print(f"  {name:<34} "
                  f"{' '.join(f'{v:.4g}' for v in runs_a):>24} | "
                  f"{' '.join(f'{v:.4g}' for v in runs_b):<24} "
                  f"bound {named['bound']:.0%}")
        problems += [f"{workload}: {line}"
                     for line in disputed_metrics(a, b, spec)]
        layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
        backend = a.get("per_layer_info", {}).get("config", {}).get(
            "execution_backend")
        for name in DETERMINISTIC:
            if backend == "mp" and name in REAL_CLOCK_UNDER_MP:
                continue
            x = layers_a.get(name, {}).get("value")
            y = layers_b.get(name, {}).get("value")
            same = x is not None and x == y
            print(f"  {name:<34} {x!s:>12} {y!s:>12}  "
                  f"{'identical' if same else 'DIFFERS'}")
            if not same:
                problems.append(f"{workload}: {name} {x} vs {y}")
        overheads = [layers.get("trace.overhead_frac", {}).get("value")
                     for layers in (layers_a, layers_b)]
        print(f"  {'trace.overhead_frac':<34} {overheads[0]!s:>12.6} "
              f"{overheads[1]!s:>12.6}")
        if a["failed"] or b["failed"]:
            problems.append(f"{workload}: failed jobs")
    return problems


def main(argv: list[str] | None = None) -> int:
    spec = spec_module.load()
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Real-clock, layer-by-layer benchmark (README.md).")
    parser.add_argument("--workload", choices=sorted(spec.workloads),
                        help="run one workload and end with the one-line "
                             "JSON result of the builder contract")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds,
                        help="how long each workload's timed jobs run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also (with --workload: instead) run the "
                             "traced job and report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor (self-tests use 0.05)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets and fail unless they agree")
    parser.add_argument("--out", default=None,
                        help=f"result file of a full set (default "
                             f"{os.path.relpath(RESULT_FILE, ROOT)})")
    parser.add_argument("--trace-dir",
                        default=os.path.join(WORK, "traces"),
                        help="where Chrome traces are written")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test only: check against a wrong answer")
    options = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks.perf: no src/repro next to BENCHMARK.json — "
              "nothing to measure", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if options.workload:
            outcome = run_one(options.workload, options, spec, run_dir,
                              bool(options.trace))
            print_metrics(f"{options.workload} — seed {options.seed}",
                          outcome["metrics"], outcome["info"])
            for note in outcome["notes"]:
                print(f"  ! {note}")
            print(json.dumps({key: outcome[key] for key in (
                "correct", "attempted", "failed", "metrics")}))
            return 0 if outcome["correct"] else 1

        if options.check_repeat:
            options.trace = 1
            sets = []
            for label in ("first", "second"):
                print(f"\n=== {label} set ===")
                sets.append(run_set(options, spec, run_dir))
            # One run in about twelve on this box reads 30 % high with
            # the calibration kernel none the wiser (README.md), so a
            # disputed workload is measured again before the verdict.
            for _ in range(REPEAT_EXTRA_ROUNDS):
                disputed = [w for w in spec.workloads if disputed_metrics(
                    sets[0][w], sets[1][w], spec)]
                if not disputed:
                    break
                print(f"\n=== measuring again: {', '.join(disputed)} ===")
                for entries in sets:
                    for workload in disputed:
                        again = run_one(workload, options, spec, run_dir,
                                        False)
                        entries[workload]["failed"] += again["failed"]
                        runs = end_to_end_runs(entries[workload])
                        for name, metric in again["metrics"].items():
                            runs[name].append(metric["value"])
            print("\n=== repeat check ===")
            problems = compare_sets(sets[0], sets[1], spec)
            for problem in problems:
                print(f"! {problem}")
            print("repeat check:", "FAILED" if problems else "passed")
            results = {"first": sets[0], "second": sets[1],
                       "problems": problems}
            failed = bool(problems)
        else:
            results = run_set(options, spec, run_dir)
            failed = any(entry["failed"] for entry in results.values())
        if options.out or not options.check_repeat:
            document = {
                "schema": "benchmarks.perf/1", "seed": options.seed,
                "scale": options.scale, "seconds": options.seconds,
                "clock": "time.perf_counter", "python": sys.version.split()[0],
                "machine": f"{platform.system()} {platform.machine()}, "
                           f"{os.cpu_count()} cpus",
                "results" if not options.check_repeat else "sets": results}
            path = options.out or RESULT_FILE
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote {os.path.relpath(path, os.getcwd())}")
        return 1 if failed else 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
