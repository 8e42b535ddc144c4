"""Command-line experiment runner: ``python -m repro.bench``.

Runs individual scaled experiment points without pytest — handy for
exploring regimes interactively::

    python -m repro.bench lr --label 80GB --iterations 5
    python -m repro.bench wc --size 150GB --keys 100M
    python -m repro.bench pr --graph HB
    python -m repro.bench kmeans --label 100GB
    python -m repro.bench cc --graph WB
    python -m repro.bench faults --kill-prob 0.1 --json fault_smoke
    python -m repro.bench trace --json trace_sample

``trace`` runs a workload instrumented end to end by :mod:`repro.obs`,
writes the Chrome ``trace_event`` JSON artifact (loadable in
``about://tracing`` / Perfetto) and prints the per-executor utilization
summary.  Each other run prints one row per execution mode (Spark /
SparkSer / Deca).
"""

from __future__ import annotations

import argparse
import sys

from ..config import ExecutionMode
from ..errors import StageAbortError
from ..obs import chrome_trace, utilization_summary
from .harness import (
    COLD_TIERS,
    GRAPH_SCALES,
    LR_SIZES,
    MEMORY_WORKLOADS,
    SQL_LAYOUTS,
    WC_SIZES,
    cell_inputs,
    fault_recovery_faults,
    run_cell,
    run_fault_recovery_point,
    run_graph_point,
    run_kmeans_point,
    run_lr_point,
    run_memory_point,
    run_sql_point,
    run_sql_swap_roundtrip,
    run_tier_point,
    run_trace_point,
    run_wc_point,
)
from .report import (
    RESULTS_DIR,
    rows_as_json,
    rows_as_table,
    write_json_result,
)


def _modes(names: list[str] | None) -> list[ExecutionMode]:
    if not names:
        return list(ExecutionMode)
    lookup = {mode.value: mode for mode in ExecutionMode}
    try:
        return [lookup[name] for name in names]
    except KeyError as exc:
        raise SystemExit(f"unknown mode {exc.args[0]!r}; "
                         f"choose from {sorted(lookup)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run scaled Deca experiments from the command line.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--modes", nargs="*", metavar="MODE",
                        help="spark / spark-ser / deca (default: all)")
    sub = parser.add_subparsers(dest="app", required=True)

    lr = sub.add_parser("lr", parents=[common],
                        help="LogisticRegression sweep point")
    lr.add_argument("--label", default="80GB", choices=sorted(LR_SIZES))
    lr.add_argument("--iterations", type=int, default=5)

    km = sub.add_parser("kmeans", parents=[common],
                        help="KMeans sweep point")
    km.add_argument("--label", default="80GB", choices=sorted(LR_SIZES))
    km.add_argument("--iterations", type=int, default=5)

    wc = sub.add_parser("wc", parents=[common],
                        help="WordCount point")
    wc.add_argument("--size", default="100GB",
                    choices=sorted({s for s, _ in WC_SIZES}))
    wc.add_argument("--keys", default="100M",
                    choices=sorted({k for _, k in WC_SIZES}))

    for name in ("pr", "cc"):
        graph = sub.add_parser(name, parents=[common],
                               help=f"{name.upper()} graph point")
        graph.add_argument("--graph", default="WB",
                           choices=sorted(GRAPH_SCALES))
        graph.add_argument("--iterations", type=int, default=3)

    ft = sub.add_parser("faults", parents=[common],
                        help="WordCount under fault injection")
    ft.add_argument("--size", default="50GB",
                    choices=sorted({s for s, _ in WC_SIZES}))
    ft.add_argument("--keys", default="10M",
                    choices=sorted({k for _, k in WC_SIZES}))
    ft.add_argument("--seed", type=int, default=17)
    ft.add_argument("--kill-prob", type=float, default=0.05)
    ft.add_argument("--corrupt-prob", type=float, default=0.0)
    ft.add_argument("--no-crash", action="store_true",
                    help="skip the scripted executor crash")
    ft.add_argument("--speculation", action="store_true")
    ft.add_argument("--json", metavar="NAME",
                    help="also write benchmarks/results/<NAME>.json")

    lint = sub.add_parser(
        "lint",
        help="run deca-lint: static rules + shadow validation per app")
    lint.add_argument("--apps", nargs="*", default=["all"], metavar="APP",
                      help="app names from the lint registry "
                           "(default: all)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="output format printed to stdout")
    lint.add_argument("--out", metavar="NAME",
                      help="also write benchmarks/results/<NAME>.json "
                           "(the canonical payload, baseline-comparable)")
    lint.add_argument("--baseline", metavar="PATH",
                      help="fail if findings appear that this baseline "
                           "payload does not contain")
    lint.add_argument("--write-baseline", metavar="PATH",
                      help="write the canonical payload to PATH and exit")
    lint.add_argument("--no-shadow", action="store_true",
                      help="skip the instrumented shadow runs "
                           "(static rules only)")
    lint.add_argument("--rules", nargs="*", default=[], metavar="PREFIX",
                      help="keep only findings whose rule id starts with "
                           "one of these prefixes (e.g. DECA2 for the "
                           "closure family); summaries are unaffected")
    lint.add_argument("--check", action="store_true",
                      help="compare against the committed baseline "
                           "(benchmarks/baselines/lint_baseline.json "
                           "unless --baseline overrides it) and exit 1 "
                           "on any finding it does not contain")
    lint.add_argument("--update-baseline", action="store_true",
                      help="regenerate the committed baseline "
                           "(benchmarks/baselines/lint_baseline.json) "
                           "from this run, print a per-app audit of "
                           "what it now contains, and exit")

    sz = sub.add_parser(
        "sanitize",
        help="prove the runtime alias sanitizer live: drive each seeded "
             "DECA30x bug fixture against a real tier/registry/ledger, "
             "then run clean WC+PageRank with sanitize=True, "
             "cold_tier='mmap' (the full cell product is "
             "tests/test_config_matrix.py)")
    sz.add_argument("--fixtures-only", action="store_true",
                    help="skip the clean WC/PageRank runs (fixture "
                         "checks only)")
    sz.add_argument("--backends", nargs="*", default=["sim", "mp"],
                    choices=["sim", "mp"],
                    help="backends for the clean runs (default: both)")
    sz.add_argument("--seed", type=int, default=17)
    sz.add_argument("--json", metavar="NAME",
                    help="also write benchmarks/results/<NAME>.json")

    mem = sub.add_parser(
        "memory",
        help="static vs unified memory-arena ablation "
             "(docs/memory_model.md)")
    mem.add_argument("--workloads", nargs="*", metavar="W",
                     default=list(MEMORY_WORKLOADS),
                     choices=list(MEMORY_WORKLOADS),
                     help="shuffle-heavy / cache-heavy (default: both)")
    mem.add_argument("--memory-modes", nargs="*", metavar="MM",
                     default=["static", "unified"],
                     choices=["static", "unified"],
                     help="arena modes to compare (default: both)")
    mem.add_argument("--mode", default="spark",
                     choices=[m.value for m in ExecutionMode],
                     help="execution mode the workloads run under")
    mem.add_argument("--json", metavar="NAME",
                     help="also write benchmarks/results/<NAME>.json")

    tier = sub.add_parser(
        "tier",
        help="heap vs mmap cold-tier ablation "
             "(swap traffic by tier, docs/memory_model.md)")
    tier.add_argument("--label", default="200GB",
                      choices=sorted(LR_SIZES),
                      help="LR occupancy point (default: the swapping "
                           "regime)")
    tier.add_argument("--tiers", nargs="*", metavar="T",
                      default=list(COLD_TIERS), choices=list(COLD_TIERS),
                      help="cold tiers to compare (default: both)")
    tier.add_argument("--mode", default="deca",
                      choices=[m.value for m in ExecutionMode],
                      help="execution mode (default: deca — the raw "
                           "byte-move path)")
    tier.add_argument("--json", metavar="NAME",
                      help="also write benchmarks/results/<NAME>.json")
    tier.add_argument("--check", action="store_true",
                      help="exit 1 unless all tiers produced identical "
                           "results and (in deca mode) mmap charged "
                           "zero swap-copy bytes where heap charged "
                           "some")

    sq = sub.add_parser(
        "sql",
        help="row vs columnar SQL-layout ablation "
             "(docs/sql_engine.md): identical digests, faster columnar "
             "kernels, zero-copy mmap swap roundtrip")
    sq.add_argument("--layouts", nargs="*", metavar="L",
                    default=list(SQL_LAYOUTS), choices=list(SQL_LAYOUTS),
                    help="cache layouts to compare (default: both)")
    sq.add_argument("--rankings", type=int, default=4_000,
                    help="rankings rows (default: 4000)")
    sq.add_argument("--uservisits", type=int, default=8_000,
                    help="uservisits rows (default: 8000)")
    sq.add_argument("--no-swap", action="store_true",
                    help="skip the mmap swap-roundtrip leg")
    sq.add_argument("--json", metavar="NAME",
                    help="also write benchmarks/results/<NAME>.json")
    sq.add_argument("--check", action="store_true",
                    help="exit 1 unless both layouts produced identical "
                         "query digests, the columnar kernels were "
                         "faster, and the swap roundtrip moved raw "
                         "bytes with zero serializer copies and a "
                         "clean ledger")

    be = sub.add_parser(
        "backend",
        help="sim vs mp execution-backend ablation "
             "(cross-backend equivalence + zero-copy counters)")
    be.add_argument("--apps", nargs="*", default=["wc", "pr"],
                    choices=["wc", "pr"],
                    help="workloads to compare (default: both)")
    be.add_argument("--backends", nargs="*", default=["sim", "mp"],
                    choices=["sim", "mp"],
                    help="execution backends to run (default: both)")
    be.add_argument("--mode", default="deca",
                    choices=[m.value for m in ExecutionMode])
    be.add_argument("--words", type=int, default=40_000)
    be.add_argument("--keys", type=int, default=2_000)
    be.add_argument("--nodes", type=int, default=400)
    be.add_argument("--edges", type=int, default=2_000)
    be.add_argument("--iterations", type=int, default=3)
    be.add_argument("--partitions", type=int, default=4)
    be.add_argument("--seed", type=int, default=17)
    be.add_argument("--json", metavar="NAME",
                    help="also write benchmarks/results/<NAME>.json")
    be.add_argument("--check", action="store_true",
                    help="exit 1 unless every backend produced identical "
                         "results per app (and, in deca mode, mp moved "
                         "decomposed data without pickling records)")

    tr = sub.add_parser(
        "trace",
        help="instrumented WordCount writing a Chrome trace artifact")
    tr.add_argument("--mode", default="spark",
                    choices=[m.value for m in ExecutionMode])
    tr.add_argument("--words", type=int, default=20_000)
    tr.add_argument("--keys", type=int, default=2_000)
    tr.add_argument("--kill-prob", type=float, default=0.0,
                    help="arm the fault injector (aborted-attempt spans)")
    tr.add_argument("--seed", type=int, default=17)
    tr.add_argument("--json", metavar="NAME", default="trace_sample",
                    help="trace artifact name under benchmarks/results/")

    args = parser.parse_args(argv)
    if args.app == "lint":
        return _run_lint(args)
    if args.app == "sanitize":
        return _run_sanitize(args)
    if args.app == "trace":
        return _run_trace(args)
    if args.app == "memory":
        return _run_memory(args)
    if args.app == "tier":
        return _run_tier(args)
    if args.app == "sql":
        return _run_sql(args)
    if args.app == "backend":
        return _run_backend(args)
    modes = _modes(args.modes)

    rows = []
    for mode in modes:
        if args.app == "lr":
            rows.append(run_lr_point(args.label, mode,
                                     iterations=args.iterations))
        elif args.app == "kmeans":
            rows.append(run_kmeans_point(args.label, mode,
                                         iterations=args.iterations))
        elif args.app == "wc":
            rows.append(run_wc_point(args.size, args.keys, mode))
        elif args.app == "faults":
            faults = fault_recovery_faults(
                seed=args.seed, task_kill_prob=args.kill_prob,
                fetch_corruption_prob=args.corrupt_prob,
                executor_crash=not args.no_crash,
                speculation=args.speculation)
            try:
                rows.append(run_fault_recovery_point(
                    args.size, args.keys, mode, faults=faults))
            except StageAbortError as exc:
                raise SystemExit(
                    f"[{mode.value}] job failed permanently: {exc}")
        else:
            rows.append(run_graph_point(args.app.upper(), args.graph,
                                        mode,
                                        iterations=args.iterations))
    print(rows_as_table(f"repro.bench {args.app}", rows))
    if args.app == "faults":
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


def _run_lint(args) -> int:
    """The ``lint`` subcommand: rules + shadow validation + baseline."""
    import json
    import os

    from ..lint import (
        baseline_diff,
        filter_report,
        render_text,
        report_payload,
        run_lint,
        serialize,
        to_sarif,
    )

    try:
        report = run_lint(args.apps, shadow=not args.no_shadow)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if args.rules:
        report = filter_report(report, tuple(args.rules))
    payload = report_payload(report)

    if args.update_baseline:
        # One audited command: rewrite the committed baseline from a
        # full run and print exactly what it now contains so the diff
        # is reviewable next to the code change that motivated it.
        target = os.path.join(os.path.dirname(RESULTS_DIR),
                              "baselines", "lint_baseline.json")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(serialize(payload))
        total = 0
        for app in payload.get("apps", []):
            count = len(app.get("findings", []))
            total += count
            print(f"  {app['app']:<16} findings={count}")
        print(f"updated baseline {target} "
              f"({len(payload.get('apps', []))} apps, "
              f"{total} findings)")
        return 0

    if args.write_baseline:
        os.makedirs(os.path.dirname(os.path.abspath(args.write_baseline)),
                    exist_ok=True)
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(serialize(payload))
        print(f"wrote baseline {args.write_baseline}")
        return 0

    if args.format == "json":
        print(serialize(payload), end="")
    elif args.format == "sarif":
        print(serialize(to_sarif(report)), end="")
    else:
        print(render_text(report))

    if args.out:
        path = write_json_result(args.out, payload)
        print(f"wrote {path}", file=sys.stderr)

    baseline_path = args.baseline
    if args.check and not baseline_path:
        baseline_path = os.path.join(os.path.dirname(RESULTS_DIR),
                                     "baselines", "lint_baseline.json")
    status = 0
    if baseline_path:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        new_findings = baseline_diff(payload, baseline)
        if new_findings:
            print(f"{len(new_findings)} finding(s) not in baseline "
                  f"{baseline_path}:", file=sys.stderr)
            for identity in new_findings:
                print(f"  {identity}", file=sys.stderr)
            status = 1
    if report.has_errors:
        print("deca-lint: error-severity findings present",
              file=sys.stderr)
        status = 1
    return status


def _sanitize_fixture_checks() -> list[dict]:
    """Drive every seeded DECA30x bug against a live ledger.

    Each fixture from :mod:`repro.lint.fixtures.borrow_bugs` runs with
    its own fresh :class:`ProvenanceLedger` wired into real runtime
    objects (mmap tier, page group, segment registry); the check passes
    when the ledger records at least one violation with exactly the
    slug the fixture's rule maps to.
    """
    import tempfile

    from ..exec.shm import SegmentRef, ShmSegmentRegistry, SharedPageSegment
    from ..lint.fixtures import borrow_bugs
    from ..memory.page import PageGroup
    from ..memory.provenance import ProvenanceLedger
    from ..memory.tier import PageStoreTier

    class _Scratch:
        """Stand-in resizable mapping for the remap fixture."""

        def resize(self, nbytes: int) -> None:
            return None

    rows: list[dict] = []

    def run(rule: str, slug: str, drive) -> None:
        ledger = ProvenanceLedger()
        with tempfile.TemporaryDirectory() as tmp:
            holds = drive(ledger, tmp) or []
            ledger.check_finish()
            count = ledger.counters.get(slug, 0)
            for view in holds:
                try:
                    view.release()
                except BufferError:
                    pass
            borrow_bugs.reset()
        rows.append({"rule": rule, "slug": slug, "violations": count,
                     "fired": count > 0})

    def drive_301(ledger, tmp):
        tier = PageStoreTier(f"{tmp}/t301.bin", ledger=ledger)
        tier.swap_out("fx-uaf", [b"\xaa" * 64])
        view = borrow_bugs.bug_use_after_free_extent(tier)
        held = [view]
        tier.close()
        return held

    def drive_302(ledger, tmp):
        name = "repro-fx-302"
        registry = ShmSegmentRegistry(ledger=ledger)
        seed = SharedPageSegment(name, 4096, create=True)
        registry.register(SegmentRef(name=name, nbytes=4096, count=0))
        view = borrow_bugs.bug_use_after_unlink_segment(
            registry, ledger, name)
        held = [view]
        seed.close()
        return held

    def drive_303(ledger, tmp):
        tier = PageStoreTier(f"{tmp}/t303.bin", ledger=ledger)
        tier.swap_out("fx-df", [b"\xaa" * 64])
        borrow_bugs.bug_double_free(tier)
        tier.close()
        return []

    def drive_304(ledger, tmp):
        tier = PageStoreTier(f"{tmp}/t304.bin", ledger=ledger)
        tier.swap_out("fx-esc", [b"\xaa" * 64])
        group = PageGroup("fx-esc", page_bytes=4096)
        group.ledger = ledger
        borrow_bugs.bug_view_escapes_adoption(tier, group, ledger)
        return []

    def drive_305(ledger, tmp):
        tier = PageStoreTier(f"{tmp}/t305.bin", ledger=ledger)
        tier.swap_out("fx-remap", [b"\xaa" * 64])
        views = borrow_bugs.bug_remap_invalidates_export(
            tier, ledger, _Scratch())
        return list(views)

    def drive_306(ledger, tmp):
        tier = PageStoreTier(f"{tmp}/t306.bin", ledger=ledger)
        tier.swap_out("fx-leak", [b"\xaa" * 64])
        views = borrow_bugs.bug_leak_at_finish(tier, stop_early=True)
        return list(views)

    def drive_307(ledger, tmp):
        entry = borrow_bugs.BadCacheEntry(b"\xaa" * 64)
        borrow_bugs.bug_cross_process_cold_alias(entry, ledger,
                                                 "fx-cold")
        return []

    def drive_308(ledger, tmp):
        group = PageGroup("fx-drain", page_bytes=4096)
        group.append_bytes(b"\xaa" * 48)
        group.ledger = ledger
        borrow_bugs.bug_unreleased_drain_copy(group, ledger)
        return []

    run("DECA301", "use-after-free-extent", drive_301)
    run("DECA302", "use-after-unlink-segment", drive_302)
    run("DECA303", "double-free", drive_303)
    run("DECA304", "view-escapes-adoption", drive_304)
    run("DECA305", "remap-invalidates-export", drive_305)
    run("DECA306", "leak-at-finish", drive_306)
    run("DECA307", "cross-process-cold-alias", drive_307)
    run("DECA308", "unreleased-drain-copy", drive_308)
    return rows


def _race_fixture_checks() -> list[dict]:
    """Drive every seeded DECA40x bug against a live vclock checker.

    Each fixture from :mod:`repro.lint.fixtures.race_bugs` runs with a
    fresh :class:`~repro.obs.vclock.VClockChecker` against real engine
    objects where the protocol needs them (a mmap tier for the
    demote/promote race, a real shm segment for the read-only write, a
    live tracer for the relay) and stubs where only the protocol edge
    matters; the check passes when the checker records at least one
    violation with exactly the slug the fixture's rule maps to.
    """
    import os
    import pickle
    import queue
    import tempfile
    import types

    from multiprocessing import shared_memory

    from ..lint.fixtures import race_bugs
    from ..memory.tier import PageStoreTier
    from ..obs.tracer import TraceEvent, Tracer
    from ..obs.vclock import VClockChecker

    rows: list[dict] = []

    def run(rule: str, slug: str, drive) -> None:
        checker = VClockChecker()
        try:
            drive(checker)
        finally:
            race_bugs.reset()
        count = checker.counters.get(slug, 0)
        rows.append({"rule": rule, "slug": slug, "violations": count,
                     "fired": count > 0})

    def drive_401(checker):
        race_bugs.unlink_races_attach(checker, "repro-racefx-401")

    def drive_402(checker):
        registry = race_bugs.RacyRegistry()
        registry.register("seg")
        registry.release_unlocked(checker, "seg")

    def drive_403(checker):
        with tempfile.TemporaryDirectory() as tmp:
            tier = PageStoreTier(os.path.join(tmp, "t403.bin"))
            tier.swap_out("fx-cold", [b"\xaa" * 64])
            entry = types.SimpleNamespace(cold=False)
            race_bugs.demote_after_free(checker, tier, entry, "fx-cold")
            tier.close()

    def drive_404(checker):
        arena = types.SimpleNamespace(free_bytes=128,
                                      execution_acquire=lambda n: None)
        pending: queue.Queue = queue.Queue()
        pending.put(1)
        race_bugs.stale_pool_write(checker, arena, pending)

    def drive_405(checker):
        checker.fork("worker0")
        checker.note_result_produced("t0", actor="worker0")
        outcome = types.SimpleNamespace(result_blob=pickle.dumps([1, 2]))
        worker = types.SimpleNamespace(join=lambda: None)
        race_bugs.consume_before_join(checker, outcome, worker)

    def drive_406(checker):
        checker.fork("w-live")
        race_bugs.sweep_live_worker(checker, "repro-racefx-none-")

    def drive_407(checker):
        store = types.SimpleNamespace(pick_victim=lambda: "b1",
                                      swap_out=lambda key: None)
        race_bugs.respill_inflight_victim(checker, store, "b1")

    def drive_408(checker):
        seg = shared_memory.SharedMemory(name="repro-racefx-408",
                                         create=True, size=64)
        try:
            race_bugs.write_through_attach(checker, "repro-racefx-408",
                                           b"\xff" * 8)
        finally:
            race_bugs.reset()
            seg.close()
            seg.unlink()

    def drive_409(checker):
        event = TraceEvent(name="x", category="task", phase="i",
                           ts_ms=1.0)
        race_bugs.relay_unanchored(checker, Tracer(), event, 100.0)

    def drive_410(checker):
        arena = types.SimpleNamespace(grant=lambda task: None)
        race_bugs.double_grant(checker, arena, "7")

    run("DECA401", "unlink-concurrent-with-attach", drive_401)
    run("DECA402", "refcount-outside-lock", drive_402)
    run("DECA403", "demote-promote-race", drive_403)
    run("DECA404", "borrow-evict-lost-update", drive_404)
    run("DECA405", "wave-barrier-bypass", drive_405)
    run("DECA406", "orphan-sweep-live-worker", drive_406)
    run("DECA407", "reentrant-spill-victim", drive_407)
    run("DECA408", "readonly-page-write", drive_408)
    run("DECA409", "trace-relay-reorder", drive_409)
    run("DECA410", "double-grant", drive_410)
    return rows


def _run_sanitize(args) -> int:
    """The ``sanitize`` subcommand: prove every DECA30x rule live.

    Two halves: (1) seeded-bug fixtures must each trip the runtime
    sanitizer with exactly their violation slug; (2) the clean WC and
    PageRank workloads must run to completion under ``sanitize=True``
    with ``cold_tier="mmap"`` on every requested backend, recording
    zero violations.
    """
    from ..config import DecaConfig

    status = 0
    fixture_rows = _sanitize_fixture_checks()
    print("repro.bench sanitize · seeded-bug fixtures")
    for row in fixture_rows:
        verdict = "fired" if row["fired"] else "MISSED"
        print(f"  {row['rule']} {row['slug']:<28} "
              f"violations={row['violations']:>2}  {verdict}")
        if not row["fired"]:
            status = 1

    race_rows = _race_fixture_checks()
    print("repro.bench sanitize · seeded race fixtures (vclock)")
    for row in race_rows:
        verdict = "fired" if row["fired"] else "MISSED"
        print(f"  {row['rule']} {row['slug']:<28} "
              f"violations={row['violations']:>2}  {verdict}")
        if not row["fired"]:
            status = 1

    clean_cells: list[dict] = []
    if not args.fixtures_only:
        inputs = cell_inputs(args.seed)
        print("repro.bench sanitize · clean runs "
              "(deca mode, cold_tier=mmap)")
        for backend in args.backends:
            for app in ("wc", "pr"):
                cfg = DecaConfig(mode=ExecutionMode.DECA,
                                 execution_backend=backend,
                                 cold_tier="mmap", sanitize=True)
                try:
                    _, run = run_cell(app, inputs, cfg)
                    counters = dict(run.metrics.sanitize)
                    violations = counters.get("violations", 0)
                    race_violations = run.metrics.race.get(
                        "violations", 0)
                except Exception as exc:   # SanitizerError included
                    counters = {}
                    violations = -1
                    race_violations = -1
                    print(f"  {app}/{backend}: FAILED ({exc})",
                          file=sys.stderr)
                clean = violations == 0 and race_violations == 0
                clean_cells.append({
                    "app": app, "backend": backend,
                    "violations": violations,
                    "race_violations": race_violations,
                    "borrows": counters.get("borrows", 0),
                    "frees": counters.get("frees", 0),
                    "clean": clean,
                })
                if not clean:
                    status = 1
                else:
                    print(f"  {app}/{backend}: clean "
                          f"(borrows={counters.get('borrows', 0)} "
                          f"frees={counters.get('frees', 0)} "
                          f"violations=0 race_violations=0)")

    if args.json:
        path = write_json_result(args.json, {
            "fixtures": fixture_rows,
            "race_fixtures": race_rows,
            "clean_runs": clean_cells,
            "ok": status == 0,
        })
        print(f"wrote {path}")
    if status == 0:
        print("sanitize: all rules fired on fixtures; clean runs clean")
    else:
        print("sanitize: FAILURES (see above)", file=sys.stderr)
    return status


def _run_memory(args) -> int:
    """The ``memory`` subcommand: the static-vs-unified arena ablation."""
    mode = {m.value: m for m in ExecutionMode}[args.mode]
    rows = []
    for workload in args.workloads:
        for memory_mode in args.memory_modes:
            row = run_memory_point(workload, memory_mode, mode)
            # Present the arena mode alongside the workload point.
            rows.append(row)
    print(rows_as_table("repro.bench memory", rows))
    print()
    for row in rows:
        summary = row.extra["memory"]
        events = summary["events"]
        arena = summary["arena"]
        print(f"[{row.label} {row.extra['memory_mode']}] "
              f"spills={events.get('shuffle:spill', 0)} "
              f"merge_spills={events.get('shuffle:merge-spill', 0)} "
              f"spilled_bytes={summary['spilled_bytes']} "
              f"swapouts={events.get('cache:swap-out', 0)} "
              f"borrows={arena.get('borrow_events', 0)} "
              f"evicts={arena.get('evict_events', 0)} "
              f"rejects={events.get('memory:reject', 0)}")
    if args.json:
        path = write_json_result(args.json, rows_as_json(rows))
        print(f"wrote {path}")
    return 0


def _run_tier(args) -> int:
    """The ``tier`` subcommand: the heap-vs-mmap cold-tier ablation.

    Runs the same LR occupancy point once per cold tier and reports
    where the swap traffic went: the heap tier round-trips Deca page
    bytes through accounted heap copies (``swap_copy_bytes``), the
    mmap tier moves them into file-backed extents
    (``tier_bytes_moved``) with zero heap copies.  Results must be
    byte-identical — the tier only changes where cold bytes live.
    """
    mode = {m.value: m for m in ExecutionMode}[args.mode]
    cells: list[dict] = []
    for tier in args.tiers:
        row = run_tier_point(tier, args.label, mode)
        summary = row.extra["tier"]
        cells.append({
            "cold_tier": tier, "label": args.label, "mode": mode.value,
            "exec_s": round(row.exec_s, 4),
            "gc_s": round(row.gc_s, 4),
            "digest": row.extra["digest"],
            "swapouts": summary["events"].get("cache:swap-out", 0),
            "swapped_bytes": summary["swapped_bytes"],
            "swap_copy_bytes": summary["swap_copy_bytes"],
            "tier_bytes_moved": summary["tier_bytes_moved"],
            "tier_stats": summary["tier"],
        })

    header = (f"{'tier':<6} {'exec(s)':>8} {'swapouts':>9} "
              f"{'swapped':>10} {'heap-copies':>12} "
              f"{'tier-moved':>11}  digest")
    print(f"repro.bench tier · LR {args.label} · mode={mode.value}")
    print(header)
    print("-" * len(header))
    for cell in cells:
        print(f"{cell['cold_tier']:<6} {cell['exec_s']:>8.3f} "
              f"{cell['swapouts']:>9} {cell['swapped_bytes']:>10} "
              f"{cell['swap_copy_bytes']:>12} "
              f"{cell['tier_bytes_moved']:>11}  {cell['digest']}")

    status = 0
    digests = {cell["cold_tier"]: cell["digest"] for cell in cells}
    if len(set(digests.values())) > 1:
        print(f"MISMATCH: results differ across tiers: {digests}",
              file=sys.stderr)
        status = 1
    elif len(digests) > 1:
        print(f"equivalence: results identical across {sorted(digests)}")
    if args.check and mode is ExecutionMode.DECA:
        by_tier = {cell["cold_tier"]: cell for cell in cells}
        heap_cell = by_tier.get("heap")
        mmap_cell = by_tier.get("mmap")
        if heap_cell is not None and heap_cell["swap_copy_bytes"] <= 0:
            print("tier check: heap tier charged no swap copies "
                  "(the point never swapped — raise the label)",
                  file=sys.stderr)
            status = 1
        if mmap_cell is not None:
            if mmap_cell["swap_copy_bytes"] != 0:
                print(f"tier check: mmap tier charged "
                      f"{mmap_cell['swap_copy_bytes']} heap-copy bytes "
                      f"on the Deca path (must be zero)", file=sys.stderr)
                status = 1
            if mmap_cell["tier_bytes_moved"] <= 0:
                print("tier check: mmap tier moved no bytes",
                      file=sys.stderr)
                status = 1

    if args.json:
        path = write_json_result(args.json, {
            "label": args.label,
            "mode": mode.value,
            "cells": cells,
            "equivalent": len(set(digests.values())) <= 1,
        })
        print(f"wrote {path}")
    return status if args.check else 0


def _run_sql(args) -> int:
    """The ``sql`` subcommand: the row-vs-columnar layout ablation.

    Runs the TPC-H-flavoured suite once per cache layout and compares
    per-query result digests (must be identical — layout changes byte
    arrangement, not answers) and simulated wall times (columnar
    kernels touch one column run per value, row kernels reconstruct
    the record).  Unless ``--no-swap``, a third leg demotes the
    columnar cache to the mmap tier and re-runs every query from
    promoted pages: digests must still match, with zero serializer
    bytes and a clean provenance ledger.
    """
    cells = {layout: run_sql_point(layout, args.rankings,
                                   args.uservisits)
             for layout in args.layouts}

    names = sorted(next(iter(cells.values()))["digests"])
    header = (f"{'layout':<9} " + "".join(f"{name + '(ms)':>12}"
                                          for name in names)
              + f" {'cached(B)':>10}  digests")
    print(f"repro.bench sql · rankings={args.rankings} "
          f"uservisits={args.uservisits}")
    print(header)
    print("-" * len(header))
    for layout, cell in cells.items():
        walls = "".join(f"{cell['wall_ms'][name]:>12.4f}"
                        for name in names)
        joined = ",".join(cell["digests"][name][:8] for name in names)
        print(f"{layout:<9} {walls} {cell['cached_bytes']:>10}  "
              f"{joined}")

    status = 0
    if len(cells) > 1:
        mismatched = [name for name in names
                      if len({cell["digests"][name]
                              for cell in cells.values()}) > 1]
        if mismatched:
            print(f"MISMATCH: layouts disagree on {mismatched}",
                  file=sys.stderr)
            status = 1
        else:
            print(f"equivalence: digests identical across "
                  f"{sorted(cells)}")

    if args.check and {"row", "columnar"} <= cells.keys():
        slower = [name for name in ("scan", "filter", "groupby")
                  if cells["columnar"]["wall_ms"][name]
                  >= cells["row"]["wall_ms"][name]]
        if slower:
            print(f"sql check: columnar kernels not faster on "
                  f"{slower}", file=sys.stderr)
            status = 1

    swap = None
    if not args.no_swap:
        swap = run_sql_swap_roundtrip(args.rankings, args.uservisits)
        print(f"swap roundtrip: moved_out={swap['bytes_moved_out']} "
              f"moved_in={swap['bytes_moved_in']} "
              f"serializer_copies={swap['swap_copy_bytes']} "
              f"ledger_violations={swap['ledger_violations']} "
              f"digests_match={swap['digests_match']}")
        if args.check:
            if not swap["digests_match"]:
                print("sql check: swap roundtrip changed query results",
                      file=sys.stderr)
                status = 1
            if swap["bytes_moved_out"] <= 0:
                print("sql check: demotion moved no bytes",
                      file=sys.stderr)
                status = 1
            if swap["swap_copy_bytes"] != 0:
                print(f"sql check: swap roundtrip charged "
                      f"{swap['swap_copy_bytes']} serializer bytes "
                      f"(must be zero on the mmap tier)",
                      file=sys.stderr)
                status = 1
            if swap["ledger_violations"] != 0:
                print(f"sql check: provenance ledger recorded "
                      f"{swap['ledger_violations']} violation(s)",
                      file=sys.stderr)
                status = 1

    if args.json:
        path = write_json_result(args.json, {
            "rankings_rows": args.rankings,
            "uservisits_rows": args.uservisits,
            "cells": cells,
            "swap_roundtrip": swap,
            "ok": status == 0,
        })
        print(f"wrote {path}")
    return status if args.check else 0


def _run_backend(args) -> int:
    """The ``backend`` subcommand: the sim-vs-mp ablation.

    Runs the same seeded WC / PageRank inputs under each backend and
    reports *real* wall seconds plus the cross-process traffic counters
    — ``bytes_pickled_records`` should be ~0 wherever the optimizer
    decomposed the data (those payloads travel as shared segments,
    ``bytes_shared``).  Digests are :func:`harness.result_digest`, the
    one tests/test_config_matrix.py compares across every cell.
    """
    import time

    from ..config import DecaConfig

    mode = {m.value: m for m in ExecutionMode}[args.mode]
    inputs = cell_inputs(args.seed, words=args.words, keys=args.keys,
                         nodes=args.nodes, edges=args.edges)

    cells: list[dict] = []
    digests: dict[str, dict[str, str]] = {}
    for app in args.apps:
        for backend in args.backends:
            cfg = DecaConfig(mode=mode, execution_backend=backend)
            start = time.perf_counter()
            digest, run = run_cell(app, inputs, cfg,
                                   iterations=args.iterations,
                                   partitions=args.partitions)
            wall_s = time.perf_counter() - start
            stats = dict(run.metrics.backend)
            digests.setdefault(app, {})[backend] = digest
            cells.append({
                "app": app, "backend": backend, "mode": mode.value,
                "wall_s": round(wall_s, 4), "digest": digest,
                "bytes_pickled_records": stats.get(
                    "bytes_pickled_records", 0),
                "bytes_pickled_results": stats.get(
                    "bytes_pickled_results", 0),
                "bytes_shared": stats.get("bytes_shared", 0),
                "segments_created": stats.get("segments_created", 0),
                "mp_tasks": stats.get("mp_tasks", 0),
            })

    header = (f"{'app':<4} {'backend':<8} {'wall(s)':>8} "
              f"{'pickled-rec':>12} {'pickled-res':>12} "
              f"{'shared':>10} {'segs':>5}  digest")
    print(f"repro.bench backend · mode={mode.value}")
    print(header)
    print("-" * len(header))
    for cell in cells:
        print(f"{cell['app']:<4} {cell['backend']:<8} "
              f"{cell['wall_s']:>8.3f} "
              f"{cell['bytes_pickled_records']:>12} "
              f"{cell['bytes_pickled_results']:>12} "
              f"{cell['bytes_shared']:>10} "
              f"{cell['segments_created']:>5}  "
              f"{cell['digest']}")

    status = 0
    for app, per_backend in digests.items():
        if len(set(per_backend.values())) > 1:
            print(f"MISMATCH: {app} results differ across backends: "
                  f"{per_backend}", file=sys.stderr)
            status = 1
        else:
            print(f"equivalence: {app} identical across "
                  f"{sorted(per_backend)}")
    if args.check and mode is ExecutionMode.DECA:
        for cell in cells:
            if cell["backend"] != "mp":
                continue
            if cell["app"] == "wc" \
                    and cell["bytes_pickled_records"] != 0:
                # WC's shuffle is fully decomposed: every record byte
                # must have crossed in shared pages.
                print(f"zero-copy violation: wc/mp pickled "
                      f"{cell['bytes_pickled_records']} record bytes",
                      file=sys.stderr)
                status = 1
            if cell["bytes_shared"] <= 0:
                print(f"zero-copy violation: {cell['app']}/mp moved no "
                      f"bytes through shared segments", file=sys.stderr)
                status = 1

    if args.json:
        path = write_json_result(args.json, {
            "mode": mode.value,
            "seed": args.seed,
            "cells": cells,
            "equivalent": status == 0,
        })
        print(f"wrote {path}")
    return status if args.check else 0


def _run_trace(args) -> int:
    """The ``trace`` subcommand: run, export, summarize."""
    from ..config import FaultConfig

    faults = None
    if args.kill_prob > 0.0:
        faults = FaultConfig(seed=args.seed,
                             task_kill_prob=args.kill_prob)
    mode = {m.value: m for m in ExecutionMode}[args.mode]
    row = run_trace_point(mode, words=args.words, keys=args.keys,
                          faults=faults)
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
