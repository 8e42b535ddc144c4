#!/usr/bin/env python
"""Paired, alternating real-clock runs of a change against a parent commit.

Extracts the committed files of ``--parent`` into a scratch directory
(``git archive``: no worktree is registered, so an interrupted run
leaves nothing in ``.git``), then runs the unchanged runner of both
trees, one workload and one seed at a time, with ``PYTHONPATH`` unset —
what

    python3 benchmarks/perf/run.py --workload W --seed s --seconds S --trace 0

runs, its ``main`` called from :data:`RUN_MAIN` in the tree's root.

Pair *i* (seed ``--seed-base + i``) runs the parent first when *i* is
even (the 1st, 3rd, ... pair) and the change first otherwise, so a
drifting machine favours neither side.  The raw values are written in
the schema of the committed ``benchmarks/results/BENCH_perf_pairs_*.json``
files (``clock``, ``jobs``, ``runs``, ``seeds``, ``what``; list index *i*
of every metric is the *i*-th seed of its workload), and for every
end-to-end metric of ``BENCHMARK.json`` the script prints the two
medians, their ratio, the parent's inter-quartile range, the pairs the
change won, a one-sided sign-test p and a verdict against the metric's
bound (a share of the parent's median): ``worse`` when the change's
median is worse than the parent's by more than the bound,
``unresolved`` when the parent's own IQR is wider than the bound and
not every change run beats every parent run, ``within bound``
otherwise.  ``runs`` also holds the set-up
phases of each run's timed child (``import_s``, ``generate_s``,
``open_s``: the ``setup_parts`` the runner keeps in its ``info``), and
the report prints their medians under each ``setup_s`` line, so a set-up
change can be traced to its phase.

Usage (from the change's checkout):

    python scripts/perf_pairs.py --parent HEAD~1 --workload lr-cache-scan \\
        --pairs 10 --seconds 12 --seed-base 101 \\
        --out benchmarks/results/BENCH_perf_pairs_x.json --what "..."

``--merge`` folds the runs into an existing ``--out`` file (a second
invocation with other workloads or pair counts).  Exit status 1 if any
run failed, printed no result or came out incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Iterable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
#: The set-up phases the runner's timed child reports, in order.
SETUP_PARTS = ("import_s", "generate_s", "open_s")
#: The runner's own ``main``, with ``run_one`` observed: its one-workload
#: mode prints the metrics alone and drops the ``info`` that holds the
#: set-up phases, so this prints them as one more JSON line after its
#: result line.  Nothing in the measured path changes.
RUN_MAIN = """
import json, sys
from benchmarks.perf import cli
info = {}
def run_one(*args, _measured=cli.run_one):
    outcome = _measured(*args)
    info.update(outcome["info"])
    return outcome
cli.run_one = run_one
status = cli.main(sys.argv[1:])
print(json.dumps(info.get("setup_parts", {})))
sys.exit(status)
"""
CLOCK = ("real (time.perf_counter / process CPU), calibrated reference "
         "seconds as benchmarks/perf reports them")


# -- the fold and the statistics (pure; the tier-1 test drives these) --------
def pair_order(index: int) -> tuple[str, str]:
    """Which side runs first in pair *index* (0-based)."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def fold(records: Iterable[dict[str, Any]],
         what: str) -> dict[str, Any]:
    """Runs → the pairs-file payload.

    Each record is ``{"workload", "seed", "side", "attempted", "failed",
    "metrics": {name: value}}`` (set-up phases are metrics too); records
    of one workload arrive in seed order, and a metric list holds one
    value per seed.
    """
    jobs: dict[str, Any] = {}
    runs: dict[str, Any] = {}
    seeds: dict[str, list[int]] = {}
    for record in records:
        workload, side = record["workload"], record["side"]
        seen = seeds.setdefault(workload, [])
        if record["seed"] not in seen:
            seen.append(record["seed"])
        tally = jobs.setdefault(workload, {}).setdefault(
            side, {"attempted": 0, "failed": 0})
        tally["attempted"] += record["attempted"]
        tally["failed"] += record["failed"]
        for name, value in record["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, {}) \
                .setdefault(side, []).append(value)
    return {"clock": CLOCK, "jobs": jobs, "runs": runs, "seeds": seeds,
            "what": what}


def merge(old: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    """*new*'s workloads replace or join *old*'s; *new*'s text joins
    *old*'s unless *old* already holds it (a session repeating its
    ``--what``)."""
    payload = {key: dict(old[key]) for key in ("jobs", "runs", "seeds")}
    for key in payload:
        payload[key].update(new[key])
    payload["clock"] = old.get("clock", new["clock"])
    what = old.get("what") or ""
    if new["what"] not in what:
        what = f"{what} {new['what']}" if what else new["what"]
    payload["what"] = what
    return payload


def sign_test_p(wins: int, trials: int) -> float:
    """One-sided P(at least *wins* of *trials* fair coin flips)."""
    if trials == 0:
        return 1.0
    return sum(math.comb(trials, k)
               for k in range(wins, trials + 1)) / 2 ** trials


def iqr(values: list[float]) -> float:
    """Q3 − Q1 as ``statistics.quantiles`` (the exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(sides: dict[str, list[float]], better: str = "lower",
              bound: float | None = None) -> dict[str, Any]:
    """Medians, ratio, parent IQR, pairs won and the sign test of one
    metric; a pair is won when the change is strictly better, and a tie
    is dropped from the test.  With the metric's *bound* (a share of the
    parent's median), also its ``verdict``."""
    parent, change = sides["parent"], sides["change"]
    if len(parent) != len(change):
        raise ValueError("a metric needs one parent and one change value "
                         "per pair")
    sign = 1.0 if better == "lower" else -1.0
    deltas = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in deltas)
    trials = sum(d != 0 for d in deltas)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    summary = {"pairs": len(parent), "parent_median": med_p,
               "change_median": med_c,
               "ratio": med_c / med_p if med_p else math.nan,
               "parent_iqr": spread, "wins": wins,
               "p": sign_test_p(wins, trials),
               "beyond_iqr": sign * (med_p - med_c) > spread}
    if bound is not None:
        allowed = bound * abs(med_p)
        if sign * (med_c - med_p) > allowed:
            summary["verdict"] = "worse"
        elif spread > allowed and not all(
                sign * (p - c) > 0 for p in parent for c in change):
            summary["verdict"] = "unresolved"
        else:
            summary["verdict"] = "within bound"
    return summary


def report(payload: dict[str, Any],
           metrics: dict[str, tuple[str, float]]) -> list[str]:
    """One printable line per workload × end-to-end metric (*metrics*:
    name → better direction and bound), and one per set-up phase
    (indented, no verdict) under each ``setup_s`` line."""
    lines = [f"{'workload':<24} {'metric':<12} {'parent':>9} {'change':>9} "
             f"{'ratio':>6} {'p.IQR':>8} {'won':>6} {'sign p':>7}  gap>IQR"
             f"  verdict"]
    for workload, by_metric in payload["runs"].items():
        for name, (better, bound) in metrics.items():
            if name not in by_metric:
                continue
            lines.append(_line(workload, name, by_metric[name], better,
                               bound))
            if name == "setup_s":
                lines += [_line("", f"  {part}", by_metric[part], "lower")
                          for part in SETUP_PARTS if part in by_metric]
    return lines


def _line(workload: str, name: str, sides: dict[str, list[float]],
          better: str, bound: float | None = None) -> str:
    try:
        s = summarize(sides, better, bound)
    except ValueError:
        return f"{workload:<24} {name:<12} unpaired (a run failed)"
    return (f"{workload:<24} {name:<12} {s['parent_median']:>9.4g} "
            f"{s['change_median']:>9.4g} {s['ratio']:>6.3f} "
            f"{s['parent_iqr']:>8.3g} {s['wins']:>3}/{s['pairs']:<2} "
            f"{s['p']:>7.4f}  {'yes' if s['beyond_iqr'] else 'no':<7}"
            f"  {s.get('verdict', '-')}")


def end_to_end_metrics(root: str) -> dict[str, tuple[str, float]]:
    """``BENCHMARK.json``'s end-to-end metric names → better direction
    and bound."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"])
            for m in spec["end_to_end"]}


# -- running -------------------------------------------------------------------
def extract(rev: str, scratch: str) -> str:
    """The committed files of *rev* in a fresh directory under *scratch*."""
    tree = tempfile.mkdtemp(prefix="perf_pairs_parent_", dir=scratch)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def run_once(tree: str, workload: str, seed: int,
             seconds: float) -> dict[str, Any]:
    """One run of *tree*'s perf runner (its ``main``, through
    :data:`RUN_MAIN`); a failure is a record with ``ok`` false."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    result: dict[str, Any] = {}
    parts: dict[str, float] = {}
    lines = done.stdout.strip().splitlines()
    if len(lines) >= 2:
        try:
            result, parts = json.loads(lines[-2]), json.loads(lines[-1])
        except ValueError:
            result, parts = {}, {}
    ok = (done.returncode == 0 and result.get("correct") is True
          and not result.get("failed"))
    metrics = {name: entry["value"] for name, entry
               in result.get("metrics", {}).items()}
    if metrics:
        metrics.update((part, parts[part]) for part in SETUP_PARTS
                       if part in parts)
    return {"ok": ok, "attempted": result.get("attempted", 1),
            "failed": result.get("failed", 0 if ok else 1),
            "metrics": metrics, "stderr": done.stderr[-2000:]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, nargs="+",
                        metavar="W")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--what", required=True, metavar="TEXT")
    parser.add_argument("--merge", action="store_true",
                        help="fold into an existing --out file")
    parser.add_argument("--scratch", default=None, metavar="DIR",
                        help="where the parent tree is extracted "
                             "(default: the system temp directory)")
    options = parser.parse_args(argv)

    metrics = end_to_end_metrics(ROOT)
    parent_tree = extract(options.parent, options.scratch
                          or tempfile.gettempdir())
    trees = {"parent": parent_tree, "change": ROOT}
    records: list[dict[str, Any]] = []
    bad = 0
    try:
        for index in range(options.pairs):
            seed = options.seed_base + index
            for workload in options.workload:
                for side in pair_order(index):
                    run = run_once(trees[side], workload, seed,
                                   options.seconds)
                    wall = run["metrics"].get("job_wall_s", math.nan)
                    print(f"pair {index + 1}/{options.pairs} {workload} "
                          f"seed {seed} {side:<6} job_wall_s {wall:.4f}"
                          f"{'' if run['ok'] else '  FAILED'}",
                          flush=True)
                    if not run["ok"]:
                        bad += 1
                        print(run["stderr"], file=sys.stderr)
                    records.append(dict(run, workload=workload, seed=seed,
                                        side=side))
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    # Pairs are folded per workload in seed order, parent before change
    # within a seed, whichever ran first.
    records.sort(key=lambda r: (options.workload.index(r["workload"]),
                                r["seed"], SIDES.index(r["side"])))
    payload = fold(records, options.what)
    if options.merge and os.path.exists(options.out):
        with open(options.out) as handle:
            payload = merge(json.load(handle), payload)
    with open(options.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n".join(report(payload, metrics)))
    print(f"wrote {options.out}; {bad} failed or incorrect run(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
