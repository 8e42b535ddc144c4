"""Command-line experiment runner: ``python -m repro.bench``.

Three kinds of subcommand, each registered with ``set_defaults(func=…)``:

* **points** — one scaled paper point under each execution mode (Spark /
  SparkSer / Deca), one table row per mode::

      python -m repro.bench lr --label 80GB --iterations 5
      python -m repro.bench wc --size 150GB --keys 100M
      python -m repro.bench pr --graph HB
      python -m repro.bench faults --kill-prob 0.1 --json fault_smoke

* **experiments** — the rows of :data:`repro.bench.experiments.EXPERIMENTS`
  (``memory``, ``tier``, ``sql``, ``backend``, ``sanitize``).  Every one
  takes the same two flags: ``--check`` (exit 1 unless every gate of the
  row holds) and ``--json NAME`` (write the row's payload)::

      python -m repro.bench backend --check
      python -m repro.bench memory --json mem

* **tools** — ``lint`` (deca-lint) and ``trace`` (a run instrumented end
  to end by :mod:`repro.obs`, written as a Chrome ``trace_event`` JSON
  loadable in ``about://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..config import ExecutionMode, FaultConfig
from ..errors import StageAbortError
from ..obs import chrome_trace, utilization_summary
from .experiments import EXPERIMENTS, run_experiment
from .harness import (
    GRAPH_SCALES,
    LR_SIZES,
    WC_SIZES,
    fault_recovery_faults,
    run_fault_recovery_point,
    run_graph_point,
    run_kmeans_point,
    run_lr_point,
    run_trace_point,
    run_wc_point,
)
from .report import (
    RESULTS_DIR,
    rows_as_json,
    rows_as_table,
    write_json_result,
)

LINT_BASELINE = os.path.join(os.path.dirname(RESULTS_DIR), "baselines",
                             "lint_baseline.json")
LINT_SARIF_BASELINE = os.path.splitext(LINT_BASELINE)[0] + ".sarif"


def _modes(names: list[str] | None) -> list[ExecutionMode]:
    if not names:
        return list(ExecutionMode)
    lookup = {mode.value: mode for mode in ExecutionMode}
    try:
        return [lookup[name] for name in names]
    except KeyError as exc:
        raise SystemExit(f"unknown mode {exc.args[0]!r}; "
                         f"choose from {sorted(lookup)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run scaled Deca experiments from the command line.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--modes", nargs="*", metavar="MODE",
                        help="spark / spark-ser / deca (default: all)")
    sub = parser.add_subparsers(dest="app", required=True)
    wc_sizes = sorted({size for size, _ in WC_SIZES})
    wc_keys = sorted({keys for _, keys in WC_SIZES})

    # -- points: ``point(args, mode)`` runs one mode's FigureRow ----------
    for name, run_point, what in (
            ("lr", run_lr_point, "LogisticRegression"),
            ("kmeans", run_kmeans_point, "KMeans")):
        p = sub.add_parser(name, parents=[common],
                           help=f"{what} sweep point")
        p.add_argument("--label", default="80GB", choices=sorted(LR_SIZES))
        p.add_argument("--iterations", type=int, default=5)
        p.set_defaults(func=_cmd_points, point=lambda args, mode, run=run_point:
                       run(args.label, mode, iterations=args.iterations))

    p = sub.add_parser("wc", parents=[common], help="WordCount point")
    p.add_argument("--size", default="100GB", choices=wc_sizes)
    p.add_argument("--keys", default="100M", choices=wc_keys)
    p.set_defaults(func=_cmd_points, point=lambda args, mode:
                   run_wc_point(args.size, args.keys, mode))

    for name in ("pr", "cc"):
        p = sub.add_parser(name, parents=[common],
                           help=f"{name.upper()} graph point")
        p.add_argument("--graph", default="WB", choices=sorted(GRAPH_SCALES))
        p.add_argument("--iterations", type=int, default=3)
        p.set_defaults(func=_cmd_points, point=lambda args, mode:
                       run_graph_point(args.app.upper(), args.graph, mode,
                                       iterations=args.iterations))

    p = sub.add_parser("faults", parents=[common],
                       help="WordCount under fault injection")
    p.add_argument("--size", default="50GB", choices=wc_sizes)
    p.add_argument("--keys", default="10M", choices=wc_keys)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--kill-prob", type=float, default=0.05)
    p.add_argument("--corrupt-prob", type=float, default=0.0)
    p.add_argument("--no-crash", action="store_true",
                   help="skip the scripted executor crash")
    p.add_argument("--speculation", action="store_true")
    p.add_argument("--json", metavar="NAME",
                   help="also write benchmarks/results/<NAME>.json")
    p.set_defaults(func=_cmd_faults)

    # -- experiments: one subparser per table row, the same two flags ----
    for row in EXPERIMENTS:
        p = sub.add_parser(
            row.name, help=f"{row.element} [{row.clock} clock]",
            description=f"{row.element} ({row.clock} clock).  Gates: "
                        + "; ".join(gate.name for gate in row.gates) + ".")
        p.add_argument("--check", action="store_true",
                       help="exit 1 unless every gate of the row holds")
        p.add_argument("--json", metavar="NAME",
                       help="also write the row's payload to "
                            "benchmarks/results/<NAME>.json")
        p.set_defaults(func=_cmd_experiment, row=row)
    # ``sanitize`` exists to gate: its fixtures run first and --check is
    # its default (the full cell product is tests/test_config_matrix.py).
    p = sub.choices["sanitize"]
    p.add_argument("--fixtures-only", action="store_true",
                   help="skip the clean WC/PageRank runs (fixture "
                        "checks only)")
    p.set_defaults(func=_cmd_sanitize, check=True)

    # -- tools -------------------------------------------------------------
    p = sub.add_parser(
        "lint",
        help="run deca-lint: static rules + shadow validation per app")
    p.add_argument("--apps", nargs="*", default=["all"], metavar="APP",
                   help="app names from the lint registry (default: all)")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="output format printed to stdout")
    p.add_argument("--no-shadow", action="store_true",
                   help="skip the sanitized shadow runs "
                        "(static rules only)")
    p.add_argument("--rules", nargs="*", default=[], metavar="PREFIX",
                   help="keep only findings whose rule id starts with "
                        "one of these prefixes (e.g. DECA2 for the "
                        "closure family); summaries are unaffected")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless this full run's JSON and SARIF "
                        "match the committed baselines (benchmarks/"
                        "baselines/lint_baseline.{json,sarif}) byte for "
                        "byte, the audits' walk counts excepted")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite both committed baselines from this "
                        "full run, print a per-app audit of what they "
                        "now contain, and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="instrumented WordCount writing a Chrome trace artifact")
    p.add_argument("--kill-prob", type=float, default=0.0,
                   help="arm the fault injector (aborted-attempt spans)")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--json", metavar="NAME", default="trace_sample",
                   help="trace artifact name under benchmarks/results/")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _cmd_points(args) -> int:
    """lr / kmeans / wc / pr / cc: one FigureRow per execution mode."""
    rows = [args.point(args, mode) for mode in _modes(args.modes)]
    print(rows_as_table(f"repro.bench {args.app}", rows))
    return 0


def _cmd_faults(args) -> int:
    """The ``faults`` subcommand: WordCount next to its faulted twin."""
    faults = fault_recovery_faults(
        seed=args.seed, task_kill_prob=args.kill_prob,
        fetch_corruption_prob=args.corrupt_prob,
        executor_crash=not args.no_crash, speculation=args.speculation)
    rows = []
    for mode in _modes(args.modes):
        try:
            rows.append(run_fault_recovery_point(
                args.size, args.keys, mode, faults=faults))
        except StageAbortError as exc:
            raise SystemExit(f"[{mode.value}] job failed permanently: {exc}")
    print(rows_as_table("repro.bench faults", rows))
    for row in rows:
        recovery = row.extra["recovery"]
        print(f"[{row.mode}] correct={row.extra['correct']} "
              f"overhead={row.extra['recovery_overhead_s']:.3f}s "
              f"failures={recovery['task_failures']} "
              f"retries={recovery['task_retries']} "
              f"lost={recovery['executors_lost']} "
              f"recomputed={recovery['recomputed_partitions']}")
    if args.json:
        path = write_json_result(args.json, rows_as_json(rows))
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    """memory / tier / sql / backend: one table row, one driver."""
    failed = run_experiment(args.row, check=args.check, json_name=args.json)
    return 1 if failed else 0


def _cmd_sanitize(args) -> int:
    """The ``sanitize`` subcommand: prove every DECA30x/40x rule live.

    Two halves: (1) each seeded-bug fixture must trip the runtime
    sanitizer with exactly its violation slug; (2) the ``sanitize``
    experiment row — clean WC and PageRank on both backends under
    ``sanitize=True`` with ``cold_tier="mmap"`` — must record zero
    violations.
    """
    from ..lint.fixtures.drivers import run_fixtures

    if args.fixtures_only and args.json:
        raise SystemExit("sanitize: --json records the clean runs; "
                         "drop --fixtures-only")
    missed = 0
    print("repro.bench sanitize · seeded-bug fixtures")
    for row in run_fixtures():
        verdict = "fired" if row["fired"] else "MISSED"
        print(f"  {row['rule']} {row['slug']:<28} "
              f"violations={row['violations']:>2}  {verdict}")
        missed += not row["fired"]
    failed = [] if args.fixtures_only else run_experiment(
        args.row, check=args.check, json_name=args.json)
    if missed or failed:
        print("sanitize: FAILURES (see above)", file=sys.stderr)
        return 1
    print("sanitize: all rules fired on fixtures; clean runs clean")
    return 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_lint(args) -> int:
    """The ``lint`` subcommand: rules + shadow validation + baseline."""
    from ..lint import (
        baseline_gate,
        filter_report,
        render_text,
        report_payload,
        run_lint,
        serialize,
        to_sarif,
    )

    gated = args.check or args.update_baseline
    if gated and (args.apps != ["all"] or args.rules or args.no_shadow):
        # The baselines hold a full run: a part of one cannot match them.
        print("lint: --check and --update-baseline need a full run "
              "(--apps all, no --rules, no --no-shadow)", file=sys.stderr)
        return 2
    try:
        report = run_lint(args.apps, shadow=not args.no_shadow)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if args.rules:
        report = filter_report(report, tuple(args.rules))
    payload = report_payload(report)
    texts = (serialize(payload), serialize(to_sarif(report)))

    if args.update_baseline:
        # One audited command: rewrite the committed baselines from a
        # full run and print exactly what they now contain so the diff
        # is reviewable next to the code change that motivated it.
        _write(LINT_BASELINE, texts[0])
        _write(LINT_SARIF_BASELINE, texts[1])
        apps = payload.get("apps", [])
        for app in apps:
            print(f"  {app['app']:<16} "
                  f"findings={len(app.get('findings', []))}")
        total = sum(len(app.get("findings", [])) for app in apps)
        print(f"updated baselines {LINT_BASELINE} and "
              f"{os.path.basename(LINT_SARIF_BASELINE)} "
              f"({len(apps)} apps, {total} findings)")
        return 0

    if args.format == "json":
        print(texts[0], end="")
    elif args.format == "sarif":
        print(texts[1], end="")
    else:
        print(render_text(report))

    status = 0
    if args.check:
        ok, lines = baseline_gate(
            (_read(LINT_BASELINE), _read(LINT_SARIF_BASELINE)), texts)
        for line in lines:
            print(line, file=sys.stderr)
        if not ok:
            status = 1
    if report.has_errors:
        print("deca-lint: error-severity findings present",
              file=sys.stderr)
        status = 1
    return status


def _cmd_trace(args) -> int:
    """The ``trace`` subcommand: run, export, summarize."""
    faults = None
    if args.kill_prob > 0.0:
        faults = FaultConfig(seed=args.seed,
                             task_kill_prob=args.kill_prob)
    row = run_trace_point(ExecutionMode.SPARK, faults=faults)
    tracer = row.extra["run"].ctx.tracer
    path = write_json_result(args.json, chrome_trace(tracer))
    print(rows_as_table("repro.bench trace", [row]))
    print()
    print(utilization_summary(tracer, title="executor utilization"))
    categories = sorted({e.category for e in tracer.events})
    print(f"\n{len(tracer.events)} events "
          f"({', '.join(categories)})")
    print(f"wrote {path} — open in about://tracing or ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
