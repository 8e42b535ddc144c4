"""Closure rules for deca-lint: static DECA20x plus the differential DECA21x.

The static half runs the bytecode-level closure analyzer
(:mod:`repro.analysis.closures`) over every UDF site a shadow run
registered — record functions, shuffle combiners, custom partitioners —
and turns each active hazard into a finding whose ``why`` chain names
the exact opcode and line.  Pragma-suppressed hazards
(``# deca: allow(DECA2xx)``) are dropped here, not just downgraded.

The differential half is the DECA101 idea applied to determinism: for a
bounded sample of UDF-bearing RDDs it re-executes partition 0 *twice*
against the already-materialized inputs (caches and shuffle outputs of
the shadow run) and diffs the outputs.

* A mismatch is ``DECA211`` (error): the UDF is nondeterministic at
  runtime, whatever the static verdict said.
* A match for a UDF the static pass flagged nondeterministic is
  ``DECA212`` (note): the sampled partition may simply not exercise the
  nondeterminism — static stays authoritative.

A double-run must never *contradict* a ``deterministic`` static verdict;
the acceptance tests pin that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..analysis.closures import ClosureReport, analyze_value
from ..spark.context import DecaContext
from ..spark.metrics import TaskMetrics
from ..spark.rdd import RDD, ShuffledRDD
from ..spark.scheduler import TaskContext
from .findings import Finding, make_finding

#: Upper bound on RDDs examined by the double-run check, so lint cost
#: stays linear in the app, not in the iteration count.
MAX_DIFFERENTIAL_RDDS = 16

#: How many leading records of a replay are compared.
MAX_DIFF_RECORDS = 4096


@dataclass(frozen=True)
class UdfSite:
    """One user function attached to the lineage graph."""

    rdd_id: int
    rdd_name: str
    kind: str               # "map" | "filter" | ... | "merge" | "partitioner"
    fn: Callable[..., Any]


def app_sites(ctx: DecaContext) -> Iterator[UdfSite]:
    """Every UDF site registered on *ctx*, in RDD-id order."""
    for rdd_id in sorted(ctx._rdds):
        rdd = ctx._rdds[rdd_id]
        fn = getattr(rdd, "_record_fn", None)
        if fn is not None:
            kind = getattr(rdd, "_record_kind", None) or "udf"
            yield UdfSite(rdd_id, rdd.name, kind, fn)
        dep = getattr(rdd, "shuffle_dep", None)
        if dep is not None:
            if dep.merge_value is not None:
                yield UdfSite(rdd_id, rdd.name, "merge", dep.merge_value)
            if dep.partitioner is not None:
                yield UdfSite(rdd_id, rdd.name, "partitioner",
                              dep.partitioner)


def run_closure_rules(app: str, ctx: DecaContext
                      ) -> tuple[list[Finding], dict[str, int]]:
    """Static scan plus differential double-run over *ctx*'s lineage."""
    findings: list[Finding] = []
    seen: set[tuple[str, str, str]] = set()
    reports: dict[int, ClosureReport] = {}
    sites: list[UdfSite] = []
    analyzed = 0
    flagged_rdds: set[int] = set()
    for site in app_sites(ctx):
        sites.append(site)
        try:
            report = analyze_value(site.fn)
        except TypeError:
            continue
        if report is None:
            continue
        analyzed += 1
        reports[site.rdd_id] = _merge_report(reports.get(site.rdd_id),
                                             report)
        if report.determinism == "nondeterministic":
            flagged_rdds.add(site.rdd_id)
        target = f"{app}/closure:{site.rdd_name}"
        for hazard in report.active_hazards:
            message = (f"{site.kind} UDF {report.qualname}: "
                       f"{hazard.reason}")
            key = (hazard.rule_id, target, message)
            if key in seen:
                continue    # same UDF re-registered each iteration
            seen.add(key)
            findings.append(make_finding(
                hazard.rule_id, target, report.qualname, message,
                location=report.location,
                why=(hazard.why(report.location),)))

    diff = _run_differential(app, ctx, reports, findings)
    summary = {
        "udf_sites": len(sites),
        "udfs_analyzed": analyzed,
        "udfs_nondeterministic": len(flagged_rdds),
        "double_runs": diff["double_runs"],
        "double_run_mismatches": diff["mismatches"],
        "double_run_skipped": diff["skipped"],
    }
    return findings, summary


def _merge_report(existing: ClosureReport | None,
                  report: ClosureReport) -> ClosureReport:
    """Keep the 'worst' report per RDD (an RDD can host map + merge)."""
    if existing is None:
        return report
    if (existing.determinism != "nondeterministic"
            and report.determinism == "nondeterministic"):
        return report
    return existing


# -- differential double-run --------------------------------------------------
def _run_differential(app: str, ctx: DecaContext,
                      reports: dict[int, ClosureReport],
                      findings: list[Finding]) -> dict[str, int]:
    stats = {"double_runs": 0, "mismatches": 0, "skipped": 0}
    for rdd_id in sorted(reports):
        if stats["double_runs"] >= MAX_DIFFERENTIAL_RDDS:
            break
        rdd = ctx._rdds.get(rdd_id)
        if rdd is None or not _replayable(rdd):
            continue
        first = _replay(ctx, rdd)
        second = _replay(ctx, rdd)
        if first is None or second is None:
            stats["skipped"] += 1
            continue
        stats["double_runs"] += 1
        report = reports[rdd_id]
        target = f"{app}/closure:{rdd.name}"
        statically_nondet = report.determinism == "nondeterministic"
        if first != second:
            stats["mismatches"] += 1
            divergence = _first_divergence(first, second)
            findings.append(make_finding(
                "DECA211", target, report.qualname,
                f"re-executing partition 0 twice produced different "
                f"outputs ({len(first)} vs {len(second)} records, first "
                f"divergence at index {divergence})",
                location=report.location,
                why=(f"[closure.diff] double-run of {rdd.name} "
                     f"partition 0 diverged at record {divergence}",
                     f"[closure.dis] static verdict was "
                     f"{report.determinism}")))
        elif statically_nondet:
            findings.append(make_finding(
                "DECA212", target, report.qualname,
                f"statically nondeterministic UDF produced identical "
                f"outputs over {len(first)} records on a double-run; "
                f"the sampled partition may not exercise the hazard",
                location=report.location,
                why=(f"[closure.diff] double-run of {rdd.name} "
                     f"partition 0 agreed",)))
    return stats


def _first_divergence(first: list[Any], second: list[Any]) -> int:
    for index, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return index
    return min(len(first), len(second))


def _replayable(rdd: RDD) -> bool:
    """Only replay UDF-bearing RDDs whose inputs are materialized."""
    if isinstance(rdd, ShuffledRDD):
        # The fetched blocks persist in the shuffle store after the run.
        return rdd.shuffle_dep.merge_value is not None
    return getattr(rdd, "_record_fn", None) is not None


def _replay(ctx: DecaContext, rdd: RDD) -> list[Any] | None:
    """Re-execute partition 0 of *rdd*, bypassing its own cache.

    ``compute`` (not ``iterator``) on the target keeps its own cached
    blocks from masking nondeterminism; parents still read through the
    cache, so both replays see identical inputs.
    """
    executor = ctx.executor_for(0, 0)
    task = TaskContext(
        executor=executor,
        metrics=TaskMetrics(task_id=0, stage_id=-1, attempt=0))
    executor.begin_task(task)
    try:
        out = []
        for record in rdd.compute(0, task):
            out.append(record)
            if len(out) >= MAX_DIFF_RECORDS:
                break
    except Exception:
        executor.abort_task(task, "lint-replay-failed")
        return None
    executor.end_task(task)
    return out
