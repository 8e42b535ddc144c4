"""One workload in one fresh process (``python -m benchmarks.perf.child``).

The driver (:mod:`.cli`) never imports the engine; it starts this module
once per sample so that set-up cost, peak RSS and interpreter state
belong to exactly one workload.  Three modes:

``setup``   everything before the first job, then exit (a set-up sample);
``timed``   set-up, one discarded warm-up job, then jobs for ``--seconds``
            with no wrapper installed — the end-to-end numbers;
``traced``  set-up, warm-up, a few untraced baseline jobs (overhead
            base, GC pauses, SQL per-query times), then one job under
            the :mod:`.tracing` wrappers, one under ``tracemalloc``, the
            probes — the per-layer numbers and the Chrome trace.

Every time is calibrated to reference seconds (:mod:`.calibration`).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

from . import calibration

_SPEED_AT_START = calibration.speed()
_T0 = time.perf_counter()   # set-up time starts before the engine imports

import argparse   # noqa: E402
import gc   # noqa: E402
import json   # noqa: E402
import os   # noqa: E402
import resource   # noqa: E402
import statistics   # noqa: E402
import sys   # noqa: E402
import tracemalloc   # noqa: E402
from typing import Any   # noqa: E402

from .calibration import Sample, calibrated_low   # noqa: E402

MIN_TIMED_JOBS = 3
BASELINE_JOBS = 3
#: Give up on a workload whose jobs keep failing instead of spinning
#: through the whole time budget.
MAX_CONSECUTIVE_FAILURES = 3


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def children_cpu_seconds() -> float:
    return _cpu(resource.RUSAGE_CHILDREN)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``getrusage``: microseconds, where ``os.times`` counts 10 ms ticks)."""
    return _cpu(resource.RUSAGE_SELF) + children_cpu_seconds()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # Linux reports KiB


def corrupt(reference: Any) -> Any:
    """A deliberately wrong reference (self-test of failure accounting)."""
    if isinstance(reference, dict):
        wrong = dict(reference)
        del wrong[next(iter(wrong))]
        return wrong
    return reference[1:]


class GcPauses:
    """Sums CPython collector pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> GcPauses:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self)


class JobRunner:
    """Runs jobs of one workload and keeps the failure account."""

    def __init__(self, workload: Any, config: Any, reference: Any) -> None:
        self.workload = workload
        self.config = config
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, state: Any, config: Any = None, hook: Any = None
            ) -> Sample:
        """One job between two calibrations; ``sample.run`` is the run
        handle, or None when the job raised or its result is wrong.

        *hook* is a context manager entered around the job only (after
        the inter-job ``gc.collect()``).
        """
        workload = self.workload
        gc.collect()
        self.attempted += 1
        run = None
        before = calibration.speed()
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            if hook is None:
                run = workload.job(state, config or self.config)
            else:
                with hook:
                    run = workload.job(state, config or self.config)
        except Exception as exc:   # a failed job is counted, not fatal
            self._fail(f"job raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        after = calibration.speed()
        if run is not None:
            try:
                same = workload.matches(workload.result(run), self.reference)
            except Exception as exc:
                same = False
                self._fail(f"check raised {type(exc).__name__}: {exc}")
            else:
                if not same:
                    self._fail("result differs from the plain-Python "
                               "reference")
            if not same:
                run = None
        return Sample(wall, cpu, before, after, run)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_timed(runner: JobRunner, state: Any, seconds: float
              ) -> dict[str, Any]:
    runner.run(state)                      # warm-up, discarded
    runner.attempted = runner.failed = 0
    runner.errors.clear()
    samples: list[Sample] = []
    consecutive = 0
    begin = time.perf_counter()
    while (time.perf_counter() - begin < seconds
           or len(samples) < MIN_TIMED_JOBS):
        sample = runner.run(state)
        if sample.run is None:
            consecutive += 1
            if consecutive >= MAX_CONSECUTIVE_FAILURES:
                break
            continue
        consecutive = 0
        sample.run = None        # keep the timing, not the whole context
        samples.append(sample)
    if not samples:
        return {}
    sensitivity = runner.workload.mode_sensitivity
    return {"job_wall_s": calibrated_low(samples, "wall_s", sensitivity),
            "job_cpu_s": calibrated_low(samples, "cpu_s", sensitivity),
            "peak_rss_mb": peak_rss_mb(),
            "raw": {"job_wall_s": [s.wall_s for s in samples],
                    "job_cpu_s": [s.cpu_s for s in samples],
                    "kernel_s": [(s.before, s.after) for s in samples],
                    "stable": sum(s.stable for s in samples)}}


def run_traced(runner: JobRunner, workload: Any, inputs: Any, state: Any,
               config: Any, args: argparse.Namespace,
               setup: dict[str, float]) -> dict[str, Any]:
    from . import layers, probes, tracing
    from .workloads import build_config

    runner.run(state)                      # warm-up
    sensitivity = workload.mode_sensitivity
    baseline: list[Sample] = []
    gc_pauses: list[float] = []
    gc_counts: list[int] = []
    worker_cpu: list[float] = []
    pass_ms: list[float] = []
    query_ms: dict[str, list[float]] = {}
    for _ in range(BASELINE_JOBS):
        pauses = GcPauses()
        children_start = children_cpu_seconds()
        sample = runner.run(state, hook=pauses)
        if sample.run is None:
            continue
        baseline.append(sample)
        factor = sample.factor(sensitivity)
        gc_pauses.append(pauses.pause_s * factor)
        gc_counts.append(pauses.collections)
        worker_cpu.append((children_cpu_seconds() - children_start) * factor)
        details = workload.details(sample.run)
        pass_ms.extend(ms * factor for ms in details.get("pass_ms", ()))
        for name, values in details.get("query_ms", {}).items():
            query_ms.setdefault(name, []).extend(
                ms * factor for ms in values)
        sample.run = None
    if not baseline:
        return {}
    baseline_wall_s = calibrated_low(baseline, "wall_s", sensitivity)

    worker_dir = os.path.join(args.work_dir, f"spans-{os.getpid()}")
    os.makedirs(worker_dir, exist_ok=True)
    recorder = tracing.Recorder(worker_dir=worker_dir)
    installation = tracing.Installation(recorder)
    traced_state = None
    job_counters: dict[str, float] = {}
    installation.install()
    try:
        with recorder.root("setup", 0):
            traced_state = workload.open(inputs, config)
        traced = runner.run(traced_state, hook=recorder.root("job", 1))
        if traced.run is not None:
            job_counters = workload.counters(traced.run)
    finally:
        installation.uninstall()
        if traced_state is not None and traced_state is not inputs:
            workload.close(traced_state)
    workers = recorder.collect_workers()
    os.rmdir(worker_dir)
    if traced.run is None:
        return {}

    tracemalloc.start()
    try:
        runner.run(state)
        tracemalloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    sim_reference_wall_s = 0.0
    if getattr(config, "execution_backend", "sim") == "mp":
        sim_config, _ = build_config({**workload.settings,
                                      "execution_backend": "sim"})
        sample = runner.run(state, config=sim_config)
        sim_reference_wall_s = sample.wall_s * sample.factor(
            calibration.DEFAULT_SENSITIVITY)

    # Span times take the traced job's calibration factor.
    traced_factor = traced.factor(sensitivity)
    totals = tracing.merge_totals(
        tracing.totals_by_name(recorder.spans),
        *(tracing.totals_by_name(dump["spans"]) for dump in workers))
    for entry in totals.values():
        entry["self_s"] *= traced_factor
        entry["busy_s"] *= traced_factor
    span_counters = dict(recorder.counters)
    for dump in workers:
        for key, amount in dump["counters"].items():
            span_counters[key] = span_counters.get(key, 0) + amount
    extras = {
        "baseline_wall_s": baseline_wall_s,
        "traced_wall_s": traced.wall_s * traced_factor,
        "worker_cpu_s": statistics.median(worker_cpu),
        "sim_reference_wall_s": sim_reference_wall_s,
        "gc_pause_s": statistics.median(gc_pauses),
        "gc_collections": statistics.median(gc_counts),
        "tracemalloc_peak_mb": tracemalloc_peak / (1024.0 * 1024.0),
        "generate_s": setup["generate_s"],
        "open_s": setup["open_s"],
        "pass_ms": pass_ms,
        "query_ms": query_ms,
    }
    metrics = layers.derive(totals, span_counters, job_counters,
                            probes.run_probes(args.scale), extras)
    # The job span and the layer shares leave the traced set-up out.
    job_rows = [row for row in recorder.spans if row[tracing.JOB] == 1]
    job_totals = tracing.merge_totals(
        tracing.totals_by_name(job_rows),
        *(tracing.totals_by_name(dump["spans"]) for dump in workers))
    job_span_s = job_totals.pop("job")["busy_s"] * traced_factor
    job_self_sum_s = traced_factor * sum(
        row[tracing.BUSY] - row[tracing.CHILD] for row in job_rows)
    if args.trace_out:
        trace = tracing.chrome_trace(recorder, workers, {
            "workload": workload.name, "seed": args.seed,
            "scale": args.scale, "clock": "time.perf_counter (raw)",
            "reference_seconds_per_raw_second": traced_factor})
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, separators=(",", ":"))
    return {
        "metrics": metrics,
        "baseline_wall_s": baseline_wall_s,
        "traced_wall_s": extras["traced_wall_s"],
        "traced_factor": traced_factor,
        "job_span_s": job_span_s,
        "job_self_sum_s": job_self_sum_s,
        "spans": len(recorder.spans) + sum(len(d["spans"])
                                           for d in workers),
        "worker_processes": len(workers),
        "layer_shares": layers.layer_shares(job_totals,
                                            job_span_s / traced_factor),
        "missing_targets": installation.missing,
        "wrappers_left": len(installation._patched),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    from .workloads import WORKLOADS, build_config, config_to_json
    import_s = time.perf_counter() - _T0
    workload = WORKLOADS[args.workload]
    config, dropped = build_config(workload.settings)
    start = time.perf_counter()
    inputs = workload.generate(args.seed, args.scale)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    state = workload.open(inputs, config)
    open_s = time.perf_counter() - start
    raw_setup_s = time.perf_counter() - _T0
    whole = Sample(raw_setup_s, 0.0, _SPEED_AT_START, calibration.speed())
    factor = whole.factor(calibration.DEFAULT_SENSITIVITY)
    setup = {"setup_s": raw_setup_s * factor, "import_s": import_s * factor,
             "generate_s": generate_s * factor, "open_s": open_s * factor}
    out: dict[str, Any] = {
        "workload": workload.name, "mode": args.mode, "seed": args.seed,
        "scale": args.scale, "pid": os.getpid(), **setup,
        "raw_setup_s": raw_setup_s,
        "setup_kernel_s": (whole.before, whole.after),
        "sizes": workload.sizes(inputs),
        "config": config_to_json(config), "dropped_settings": dropped,
    }
    try:
        if args.mode != "setup":
            reference = workload.reference(inputs)
            if args.corrupt_reference:
                reference = corrupt(reference)
            runner = JobRunner(workload, config, reference)
            if args.mode == "timed":
                out.update(run_timed(runner, state, args.seconds))
            else:
                out.update(run_traced(runner, workload, inputs, state,
                                      config, args, setup))
            out.update(attempted=runner.attempted, failed=runner.failed,
                       errors=runner.errors)
    finally:
        workload.close(state)
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
