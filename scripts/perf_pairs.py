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
drifting machine favours neither side.  :data:`AA_PAIRS` of the pairs
(spread evenly over the session) are each followed by an A/A pair of
the same workload and seed: the parent tree twice, its two runs
labelled ``parent`` and ``again`` and alternated the same way.  Their
ratios (``again`` / ``parent``) are the session's own A/A band for that
workload: what the machine's drift alone moves a ratio by, measured
beside the change.  The A/A block costs ``min(3, --pairs)`` extra pairs
per workload: 30 % more runs on a 10-pair claim, twice the runs of a
3-pair check.

The raw values are written in the schema of the committed
``benchmarks/results/BENCH_perf_pairs_*.json`` files (``clock``,
``jobs``, ``runs``, ``seeds``, ``what``; list index *i* of every metric
is the *i*-th seed of its workload; the A/A pairs, when there are any,
in ``aa_runs`` / ``aa_seeds`` of the same shape), and for every
end-to-end metric of ``BENCHMARK.json`` the script prints the two
medians, their ratio, the parent's inter-quartile range, the pairs the
change won, a one-sided sign-test p, the A/A band and two verdicts.
Against the band: ``claimed`` when the ratio lies beyond the band on the
better side with a sign-test p of at most 0.05, ``drift`` when it lies
outside the band otherwise, ``unresolved`` inside the band with fewer
than :data:`MIN_PAIRS` pairs or no band of two A/A pairs, ``within
band`` otherwise.  Against the metric's bound (a share of the parent's
median): ``worse`` when the change's median is worse than the parent's
by more than the bound, ``unresolved`` when the parent's own IQR is
wider than the bound and not every change run beats every parent run,
``within bound`` otherwise.  ``runs`` also holds the set-up
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
run failed, printed no result or came out incorrect.  A session whose
``--parent`` holds the same ``src/`` and ``benchmarks/perf/`` as the
checked-out tree is an A/A session (``"aa": true`` in its file): both
sides run the same code, so its spread is the machine's drift alone.

    python scripts/perf_pairs.py --trajectory

folds every committed pairs file, oldest first, into
``benchmarks/results/BENCH_perf_trajectory.json``: one row per file
giving, per workload and end-to-end metric, both medians, their ratio,
the parent's IQR and the pairs the change won, and in ``aa`` the A/A
band of each workload and metric — from the session's A/A pairs, or from
all its pairs in an A/A session — or ``null`` for a session without one.
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
#: What the runner executes of a tree: a session whose parent holds the
#: same files here as the checked-out tree is A/A.
MEASURED = ("src", "benchmarks/perf")
RESULTS = os.path.join("benchmarks", "results")
PAIRS_GLOB = os.path.join(RESULTS, "BENCH_perf_pairs_*.json")
TRAJECTORY = os.path.join(RESULTS, "BENCH_perf_trajectory.json")
#: The summary fields a trajectory row keeps per workload and metric.
TRAJECTORY_FIELDS = ("parent_median", "change_median", "ratio",
                     "parent_iqr", "wins", "pairs")
#: The two runs of an A/A pair: both are the parent tree.
AA_SIDES = ("parent", "again")
#: A/A pairs per workload and session: a band of at least two ratios on
#: a 3-pair check, for 30 % more runs on a 10-pair claim.
AA_PAIRS = 3
#: The fewest pairs whose one-sided sign test can reach p <= 0.05 (5 of
#: 5 won: p = 1/32); a ratio inside its band on fewer reads unresolved.
MIN_PAIRS = 5
CLAIM_P = 0.05


# -- the fold and the statistics (pure; the tier-1 test drives these) --------
def pair_order(index: int, sides: tuple[str, str] = SIDES
               ) -> tuple[str, str]:
    """Which side runs first in pair *index* (0-based)."""
    return sides if index % 2 == 0 else sides[::-1]


def aa_schedule(pairs: int) -> set[int]:
    """The pair indices an A/A pair follows: :data:`AA_PAIRS` of them
    (at most one per pair), spread evenly from the first pair on."""
    count = min(AA_PAIRS, pairs)
    return {i * pairs // count for i in range(count)}


def fold(records: Iterable[dict[str, Any]],
         what: str) -> dict[str, Any]:
    """Runs → the pairs-file payload.

    Each record is ``{"workload", "seed", "side", "attempted", "failed",
    "metrics": {name: value}}`` (set-up phases are metrics too), and
    ``"aa": True`` for a run of an A/A pair (sides :data:`AA_SIDES`),
    which goes to ``aa_runs`` / ``aa_seeds`` and is tallied in ``jobs``
    under ``"aa"``; records of one workload arrive in seed order, and a
    metric list holds one value per seed.
    """
    jobs: dict[str, Any] = {}
    payload: dict[str, Any] = {"clock": CLOCK, "jobs": jobs, "runs": {},
                               "seeds": {}, "what": what}
    for record in records:
        workload, side = record["workload"], record["side"]
        aa = bool(record.get("aa"))
        runs = payload.setdefault("aa_runs" if aa else "runs", {})
        seen = payload.setdefault("aa_seeds" if aa else "seeds",
                                  {}).setdefault(workload, [])
        if record["seed"] not in seen:
            seen.append(record["seed"])
        tally = jobs.setdefault(workload, {}).setdefault(
            "aa" if aa else side, {"attempted": 0, "failed": 0})
        tally["attempted"] += record["attempted"]
        tally["failed"] += record["failed"]
        for name, value in record["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, {}) \
                .setdefault(side, []).append(value)
    return payload


def merge(old: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    """*new*'s workloads replace or join *old*'s; *new*'s text joins
    *old*'s unless *old* already holds it (a session repeating its
    ``--what``).  The file stays A/A only if both sessions were."""
    rerun = set(new["runs"])
    payload: dict[str, Any] = {}
    for key in ("jobs", "runs", "seeds", "aa_runs", "aa_seeds"):
        # A workload *new* ran again keeps none of its old A/A pairs.
        merged = {workload: value
                  for workload, value in old.get(key, {}).items()
                  if workload not in rerun}
        merged.update(new.get(key, {}))
        if merged or key in new:
            payload[key] = merged
    payload["clock"] = old.get("clock", new["clock"])
    if "aa" in new:
        payload["aa"] = bool(old.get("aa")) and new["aa"]
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


def aa_band(first: list[float], second: list[float]
            ) -> dict[str, Any] | None:
    """The A/A band of one metric from its A/A pairs' two runs: the
    lowest and the highest second/first ratio, the ratios' IQR and the
    pair count; ``None`` without a pair."""
    ratios = [b / a for a, b in zip(first, second) if a]
    if not ratios:
        return None
    return {"low": min(ratios), "high": max(ratios), "iqr": iqr(ratios),
            "pairs": len(ratios)}


def band_verdict(summary: dict[str, Any], band: dict[str, Any] | None,
                 better: str = "lower") -> str:
    """``claimed`` / ``drift`` / ``unresolved`` / ``within band`` for
    one metric's :func:`summarize` against its A/A *band*."""
    if band is None or band["pairs"] < 2:
        return "unresolved"
    ratio = summary["ratio"]
    gained = ratio < band["low"] if better == "lower" else \
        ratio > band["high"]
    if gained and summary["p"] <= CLAIM_P:
        return "claimed"
    if not band["low"] <= ratio <= band["high"]:
        return "drift"
    return "unresolved" if summary["pairs"] < MIN_PAIRS else "within band"


def session_bands(payload: dict[str, Any], metrics: Iterable[str]
                  ) -> dict[str, dict[str, dict[str, Any]]] | None:
    """workload → metric (of *metrics*) → :func:`aa_band` of a pairs
    file: its A/A pairs, or every pair of an A/A session; ``None`` for a
    session with neither."""
    if "aa_runs" in payload:
        runs, second = payload["aa_runs"], AA_SIDES[1]
    elif payload.get("aa"):
        runs, second = session_runs(payload), SIDES[1]
    else:
        return None
    bands: dict[str, dict[str, dict[str, Any]]] = {}
    for workload, by_metric in runs.items():
        for metric in metrics:
            sides = by_metric.get(metric)
            band = sides and aa_band(sides["parent"], sides[second])
            if band:
                bands.setdefault(workload, {})[metric] = band
    return bands


def report(payload: dict[str, Any],
           metrics: dict[str, tuple[str, float]]) -> list[str]:
    """One printable line per workload × end-to-end metric (*metrics*:
    name → better direction and bound), and one per set-up phase
    (indented, no verdict) under each ``setup_s`` line."""
    lines = [f"{'workload':<24} {'metric':<12} {'parent':>9} {'change':>9} "
             f"{'ratio':>6} {'p.IQR':>8} {'won':>6} {'sign p':>7}  gap>IQR"
             f"  {'A/A band':<11}  {'band verdict':<12}  bound verdict"]
    bands = ("aa_runs" in payload and session_bands(payload, metrics)) or {}
    for workload, by_metric in payload["runs"].items():
        for name, (better, bound) in metrics.items():
            if name not in by_metric:
                continue
            band = bands.get(workload, {}).get(name)
            lines.append(_line(workload, name, by_metric[name], better,
                               bound, band))
            if name == "setup_s":
                lines += [_line("", f"  {part}", by_metric[part], "lower")
                          for part in SETUP_PARTS if part in by_metric]
    return lines


def _line(workload: str, name: str, sides: dict[str, list[float]],
          better: str, bound: float | None = None,
          band: dict[str, Any] | None = None) -> str:
    try:
        s = summarize(sides, better, bound)
    except ValueError:
        return f"{workload:<24} {name:<12} unpaired (a run failed)"
    # A set-up phase has no bound, and is given no band verdict either.
    span = f"{band['low']:.3f}-{band['high']:.3f}" if band else "-"
    verdict = band_verdict(s, band, better) if bound is not None else "-"
    return (f"{workload:<24} {name:<12} {s['parent_median']:>9.4g} "
            f"{s['change_median']:>9.4g} {s['ratio']:>6.3f} "
            f"{s['parent_iqr']:>8.3g} {s['wins']:>3}/{s['pairs']:<2} "
            f"{s['p']:>7.4f}  {'yes' if s['beyond_iqr'] else 'no':<7}"
            f"  {span:<11}  {verdict:<12}  {s.get('verdict', '-')}")


def session_runs(payload: dict[str, Any]
                 ) -> dict[str, dict[str, dict[str, list[float]]]]:
    """A pairs file's values as workload → metric → side → list.

    One early file keeps a list of raw run records (``workload``,
    ``seed``, ``side``, ``result``) instead; it is folded here in seed
    order."""
    runs = payload["runs"]
    if isinstance(runs, dict):
        return runs
    out: dict[str, dict[str, dict[str, list[float]]]] = {}
    for record in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        for name, entry in record["result"].get("metrics", {}).items():
            out.setdefault(record["workload"], {}).setdefault(name, {}) \
                .setdefault(record["side"], []).append(entry["value"])
    return out


def trajectory(sessions: Iterable[tuple[str, dict[str, Any]]],
               metrics: dict[str, tuple[str, float]]) -> dict[str, Any]:
    """Pairs files (name, payload), oldest first → the trajectory
    payload: one row per file with :data:`TRAJECTORY_FIELDS` of every
    workload × end-to-end metric it paired, and its
    :func:`session_bands` (``None`` when it has none)."""
    rows = []
    for name, payload in sessions:
        workloads: dict[str, Any] = {}
        for workload, by_metric in session_runs(payload).items():
            for metric, (better, _) in metrics.items():
                try:
                    s = summarize(by_metric[metric], better)
                except (KeyError, ValueError):  # not paired here
                    continue
                workloads.setdefault(workload, {})[metric] = {
                    key: s[key] for key in TRAJECTORY_FIELDS}
        rows.append({"file": name, "aa": session_bands(payload, metrics),
                     "workloads": workloads})
    return {"clock": CLOCK, "metrics": sorted(metrics), "sessions": rows}


def committed_pairs_files(root: str) -> list[str]:
    """The pairs files git tracks under *root*, oldest commit first (a
    file staged but not yet committed last, by name)."""
    tracked = subprocess.run(
        ["git", "-C", root, "ls-files", "--", PAIRS_GLOB], check=True,
        capture_output=True, text=True).stdout.split()
    log = subprocess.run(
        ["git", "-C", root, "log", "--diff-filter=A", "--format=@%ct",
         "--name-only", "--", PAIRS_GLOB], check=True,
        capture_output=True, text=True).stdout.split()
    added: dict[str, int] = {}
    stamp = 0
    for token in log:
        if token.startswith("@"):
            stamp = int(token[1:])
        else:
            added.setdefault(token, stamp)   # newest log entry first
    last = max(added.values(), default=0) + 1
    return sorted(tracked, key=lambda path: (added.get(path, last), path))


def write_trajectory(root: str) -> str:
    """Fold *root*'s committed pairs files into :data:`TRAJECTORY`."""
    sessions = []
    for path in committed_pairs_files(root):
        with open(os.path.join(root, path)) as handle:
            sessions.append((os.path.basename(path), json.load(handle)))
    out = os.path.join(root, TRAJECTORY)
    with open(out, "w") as handle:
        json.dump(trajectory(sessions, end_to_end_metrics(root)), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    return out


def same_measured_code(rev: str) -> bool:
    """Whether *rev*'s committed :data:`MEASURED` files are the
    checked-out tree's (no difference, nothing untracked): an A/A
    session."""
    diff = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", rev, "--",
                           *MEASURED])
    untracked = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "--others", "--exclude-standard",
         "--", *MEASURED], check=True, capture_output=True, text=True)
    return diff.returncode == 0 and not untracked.stdout.strip()


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
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--workload", nargs="+", metavar="W")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--what", metavar="TEXT")
    parser.add_argument("--merge", action="store_true",
                        help="fold into an existing --out file")
    parser.add_argument("--scratch", default=None, metavar="DIR",
                        help="where the parent tree is extracted "
                             "(default: the system temp directory)")
    parser.add_argument("--trajectory", action="store_true",
                        help=f"only fold the committed pairs files into "
                             f"{TRAJECTORY}")
    options = parser.parse_args(argv)
    if options.trajectory:
        print(f"wrote {write_trajectory(ROOT)}")
        return 0
    missing = [flag for flag in ("parent", "workload", "pairs", "seconds",
                                 "seed_base", "out", "what")
               if getattr(options, flag) is None]
    if missing:
        parser.error("a session needs " + ", ".join(
            "--" + flag.replace("_", "-") for flag in missing))

    metrics = end_to_end_metrics(ROOT)
    aa = same_measured_code(options.parent)
    parent_tree = extract(options.parent, options.scratch
                          or tempfile.gettempdir())
    trees = {"parent": parent_tree, "change": ROOT}
    aa_at = aa_schedule(options.pairs)
    records: list[dict[str, Any]] = []
    bad = 0
    try:
        for index in range(options.pairs):
            seed = options.seed_base + index
            for workload in options.workload:
                blocks = [(False, pair_order(index))]
                if index in aa_at:
                    blocks.append((True, pair_order(index, AA_SIDES)))
                for again, order in blocks:
                    for side in order:
                        run = run_once(trees["parent" if again else side],
                                       workload, seed, options.seconds)
                        wall = run["metrics"].get("job_wall_s", math.nan)
                        print(f"pair {index + 1}/{options.pairs} "
                              f"{workload} seed {seed} "
                              f"{'A/A ' if again else ''}{side:<6} "
                              f"job_wall_s {wall:.4f}"
                              f"{'' if run['ok'] else '  FAILED'}",
                              flush=True)
                        if not run["ok"]:
                            bad += 1
                            print(run["stderr"], file=sys.stderr)
                        records.append(dict(run, workload=workload,
                                            seed=seed, side=side, aa=again))
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    # Pairs are folded per workload in seed order, the change pairs
    # parent before change and the A/A pairs parent before again within
    # a seed, whichever ran first.
    records.sort(key=lambda r: (options.workload.index(r["workload"]),
                                r["seed"], r["aa"],
                                (AA_SIDES if r["aa"] else SIDES)
                                .index(r["side"])))
    payload = fold(records, options.what)
    payload["aa"] = aa
    if options.merge and os.path.exists(options.out):
        with open(options.out) as handle:
            payload = merge(json.load(handle), payload)
    with open(options.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n".join(report(payload, metrics)))
    print(f"wrote {options.out}{' (A/A)' if aa else ''}; {bad} failed or "
          f"incorrect run(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
