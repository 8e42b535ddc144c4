"""``scripts/perf_pairs.py``: the fold into the pairs-file schema and the
paired statistics, on canned runs and on a committed pairs file."""

from __future__ import annotations

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(ROOT, "scripts", "perf_pairs.py"))
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


def _run(workload, seed, side, wall, attempted=5, failed=0, setup=None):
    metrics = {"job_wall_s": wall, "peak_rss_mb": 30.0}
    if setup is not None:
        metrics["setup_s"] = sum(setup)
        metrics.update(zip(perf_pairs.SETUP_PARTS, setup))
    return {"workload": workload, "seed": seed, "side": side,
            "attempted": attempted, "failed": failed, "metrics": metrics}


CANNED = [
    _run("lr", 1, "parent", 0.80, setup=(0.2, 0.3, 0.0)),
    _run("lr", 1, "change", 0.50, setup=(0.2, 0.1, 0.0)),
    _run("lr", 2, "parent", 0.70, setup=(0.3, 0.4, 0.0)),
    _run("lr", 2, "change", 0.55, setup=(0.2, 0.2, 0.0)),
    _run("lr", 3, "parent", 0.90, setup=(0.2, 0.5, 0.0)),
    _run("lr", 3, "change", 0.95, attempted=4, failed=1,
         setup=(0.1, 0.2, 0.0)),
    _run("wc", 7, "parent", 0.20), _run("wc", 7, "change", 0.20),
]

#: One workload per verdict of ``job_wall_s`` against a 0.25 bound.
VERDICTS = [
    # +50 % on a tight parent: worse.
    *(_run("slower", seed, side, wall) for seed, side, wall in (
        (1, "parent", 0.10), (1, "change", 0.15),
        (2, "parent", 0.10), (2, "change", 0.15),
        (3, "parent", 0.11), (3, "change", 0.16))),
    # Parent IQR 0.3 on a 0.2 median, equal medians: unresolved.
    *(_run("noisy", seed, side, wall) for seed, side, wall in (
        (1, "parent", 0.10), (1, "change", 0.15),
        (2, "parent", 0.20), (2, "change", 0.20),
        (3, "parent", 0.40), (3, "change", 0.30))),
    # Just as noisy, but every change run beats every parent run.
    *(_run("faster", seed, side, wall) for seed, side, wall in (
        (1, "parent", 1.00), (1, "change", 0.50),
        (2, "parent", 2.00), (2, "change", 0.60),
        (3, "parent", 4.00), (3, "change", 0.70))),
    # A tie on a tight parent: within bound.
    *(_run("steady", seed, side, 0.20) for seed in (1, 2, 3)
      for side in ("parent", "change")),
]


class TestFold:
    def test_schema_and_order(self):
        payload = perf_pairs.fold(CANNED, "canned")
        assert sorted(payload) == ["clock", "jobs", "runs", "seeds", "what"]
        assert payload["what"] == "canned"
        assert payload["seeds"] == {"lr": [1, 2, 3], "wc": [7]}
        assert payload["runs"]["lr"]["job_wall_s"] == {
            "parent": [0.80, 0.70, 0.90], "change": [0.50, 0.55, 0.95]}
        assert payload["jobs"]["lr"] == {
            "parent": {"attempted": 15, "failed": 0},
            "change": {"attempted": 14, "failed": 1}}
        assert payload["runs"]["lr"]["generate_s"] == {
            "parent": [0.3, 0.4, 0.5], "change": [0.1, 0.2, 0.2]}
        assert "import_s" not in payload["runs"]["wc"]

    def test_setup_phases_print_under_setup_s(self):
        payload = perf_pairs.fold(CANNED, "")
        lines = perf_pairs.report(payload, {"job_wall_s": ("lower", 0.25),
                                            "setup_s": ("lower", 0.25)})
        rows = [line.split() for line in lines[1:]]
        # lr: job_wall_s, setup_s and its three phases; wc: no set-up.
        assert [row[0] for row in rows] == [
            "lr", "lr", "import_s", "generate_s", "open_s", "wc"]
        assert rows[1][1] == "setup_s" and rows[5][1] == "job_wall_s"
        assert rows[3][:4] == ["generate_s", "0.4", "0.2", "0.500"]
        # A set-up phase has no bound, so no verdict.
        assert rows[3][-1] == "-" and rows[5][-2:] == ["within", "bound"]

    def test_merge_keeps_old_workloads(self):
        old = perf_pairs.fold(CANNED[:6], "first")
        new = perf_pairs.fold(CANNED[6:], "second")
        merged = perf_pairs.merge(old, new)
        assert sorted(merged["runs"]) == ["lr", "wc"]
        assert merged["what"] == "first second"

    @pytest.mark.parametrize("old_what, new_what, want", [
        ("first", "first", "first"),
        ("first second", "second", "first second"),
        ("", "second", "second"),
        ("first", "", "first"),
    ])
    def test_merge_writes_a_repeated_text_once(self, old_what, new_what,
                                               want):
        old = perf_pairs.fold(CANNED[:6], old_what)
        new = perf_pairs.fold(CANNED[6:], new_what)
        assert perf_pairs.merge(old, new)["what"] == want

    @pytest.mark.parametrize("old_aa, new_aa, want", [
        (True, True, True), (True, False, False), (None, True, False),
        (False, True, False),
    ])
    def test_merge_stays_aa_only_if_both_sessions_were(self, old_aa, new_aa,
                                                       want):
        old = perf_pairs.fold(CANNED[:6], "first")
        if old_aa is not None:
            old["aa"] = old_aa
        new = dict(perf_pairs.fold(CANNED[6:], "second"), aa=new_aa)
        assert perf_pairs.merge(old, new)["aa"] is want

    def test_alternating_order(self):
        assert [perf_pairs.pair_order(i)[0] for i in range(4)] == \
            ["parent", "change", "parent", "change"]


class TestStatistics:
    def test_summary(self):
        runs = perf_pairs.fold(CANNED, "")["runs"]
        s = perf_pairs.summarize(runs["lr"]["job_wall_s"])
        assert s["pairs"] == 3 and s["wins"] == 2
        assert s["parent_median"] == 0.80 and s["change_median"] == 0.55
        assert s["ratio"] == pytest.approx(0.6875)
        assert s["p"] == pytest.approx(0.5)     # P(X >= 2 | n=3)
        # quantiles(n=4) of [0.7, 0.8, 0.9] (exclusive): 0.7 and 0.9.
        assert s["parent_iqr"] == pytest.approx(0.2)
        assert s["beyond_iqr"] is True

    def test_ties_leave_the_sign_test(self):
        runs = perf_pairs.fold(CANNED, "")["runs"]
        s = perf_pairs.summarize(runs["wc"]["job_wall_s"])
        assert s["wins"] == 0 and s["p"] == 1.0

    def test_higher_is_better(self):
        s = perf_pairs.summarize({"parent": [1.0, 2.0], "change": [3.0, 1.5]},
                                 better="higher")
        assert s["wins"] == 1

    def test_sign_test(self):
        assert perf_pairs.sign_test_p(10, 10) == pytest.approx(1 / 1024)
        assert perf_pairs.sign_test_p(9, 10) == pytest.approx(11 / 1024)
        assert perf_pairs.sign_test_p(0, 0) == 1.0

    def test_unpaired_metric_is_reported_not_summarized(self):
        payload = perf_pairs.fold(CANNED[:3], "")
        lines = perf_pairs.report(payload, {"job_wall_s": ("lower", 0.25)})
        assert "unpaired" in lines[-1]

    def test_each_metric_gets_a_verdict_against_its_bound(self):
        payload = perf_pairs.fold(VERDICTS, "")
        lines = perf_pairs.report(payload, {"job_wall_s": ("lower", 0.25),
                                            "setup_s": ("lower", 0.25)})
        verdicts = {line.split()[0]: line.split("  ")[-1].strip()
                    for line in lines[1:]}
        assert verdicts == {"slower": "worse", "noisy": "unresolved",
                            "faster": "within bound",
                            "steady": "within bound"}
        runs = payload["runs"]
        # "higher" flips the direction: the slower side reads better.
        assert perf_pairs.summarize(runs["slower"]["job_wall_s"], "higher",
                                    0.25)["verdict"] == "within bound"
        assert "verdict" not in perf_pairs.summarize(
            runs["slower"]["job_wall_s"])


class TestTrajectory:
    METRICS = {"job_wall_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1),
               "job_cpu_s": ("lower", 0.25)}

    def sessions(self):
        aa = dict(perf_pairs.fold(CANNED, "a/a"), aa=True)
        # The early list-of-records schema of one committed file.
        listed = {"runs": [
            {"workload": "wc", "seed": seed, "side": side,
             "result": {"metrics": {"job_wall_s": {"value": wall}}}}
            for seed, side, wall in ((2, "change", 0.3), (2, "parent", 0.4),
                                     (1, "parent", 0.2), (1, "change", 0.1))]}
        return [("BENCH_perf_pairs_aa.json", aa),
                ("BENCH_perf_pairs_old.json", listed),
                ("BENCH_perf_pairs_verdicts.json",
                 perf_pairs.fold(VERDICTS, "v"))]

    def test_one_row_per_session_in_order(self):
        out = perf_pairs.trajectory(self.sessions(), self.METRICS)
        assert out["metrics"] == ["job_cpu_s", "job_wall_s", "peak_rss_mb"]
        # An A/A session's band is its own pairs; the others have none.
        assert [(row["file"], row["aa"] is not None)
                for row in out["sessions"]] == [
            ("BENCH_perf_pairs_aa.json", True),
            ("BENCH_perf_pairs_old.json", False),
            ("BENCH_perf_pairs_verdicts.json", False)]

    def test_row_fields_are_the_paired_summary(self):
        rows = perf_pairs.trajectory(self.sessions(),
                                     self.METRICS)["sessions"]
        lr = rows[0]["workloads"]["lr"]
        # Only what the session paired: no job_cpu_s in the canned runs.
        assert sorted(lr) == ["job_wall_s", "peak_rss_mb"]
        assert lr["job_wall_s"] == {
            "parent_median": 0.80, "change_median": 0.55,
            "ratio": pytest.approx(0.6875), "parent_iqr": pytest.approx(0.2),
            "wins": 2, "pairs": 3}
        assert rows[1]["workloads"]["wc"]["job_wall_s"] == {
            "parent_median": pytest.approx(0.3),
            "change_median": pytest.approx(0.2),
            "ratio": pytest.approx(2 / 3), "parent_iqr": pytest.approx(0.3),
            "wins": 2, "pairs": 2}
        assert sorted(rows[2]["workloads"]) == ["faster", "noisy", "slower",
                                                "steady"]

    def test_the_committed_trajectory_folds_the_committed_files(self):
        with open(os.path.join(ROOT, perf_pairs.TRAJECTORY)) as handle:
            committed = json.load(handle)
        metrics = perf_pairs.end_to_end_metrics(ROOT)
        sessions = []
        for row in committed["sessions"]:
            path = os.path.join(ROOT, perf_pairs.RESULTS, row["file"])
            with open(path) as handle:
                sessions.append((row["file"], json.load(handle)))
        assert perf_pairs.trajectory(sessions, metrics) == committed
        assert any(row["aa"] for row in committed["sessions"])
        assert all(row["workloads"] for row in committed["sessions"])


def _aa_session(workloads):
    """Runs of one session: per workload, change pairs (parent, change
    values) and A/A pairs (parent, again values) on the same seeds."""
    records = []
    for workload, (pairs, aa_pairs) in workloads.items():
        for seed, (parent, change) in enumerate(pairs, start=1):
            records += [_run(workload, seed, "parent", parent),
                        _run(workload, seed, "change", change)]
        for seed, (first, again) in enumerate(aa_pairs, start=1):
            records += [dict(_run(workload, seed, "parent", first), aa=True),
                        dict(_run(workload, seed, "again", again), aa=True)]
    return perf_pairs.fold(records, "aa")


def _band_verdicts(payload):
    lines = perf_pairs.report(payload, {"job_wall_s": ("lower", 0.25)})
    # Columns: ... gap>IQR, A/A band, band verdict, bound verdict.
    return {line.split()[0]: re.split(r"\s{2,}", line.strip())[-2]
            for line in lines[1:]}


#: Three A/A pairs within ±2 % of each other.
TIGHT_AA = [(0.50, 0.51), (0.50, 0.49), (0.52, 0.52)]


class TestAABand:
    def test_schedule_spreads_the_aa_pairs(self):
        assert perf_pairs.AA_PAIRS == 3
        assert perf_pairs.aa_schedule(10) == {0, 3, 6}
        assert perf_pairs.aa_schedule(3) == {0, 1, 2}
        assert perf_pairs.aa_schedule(2) == {0, 1}

    def test_aa_pairs_fold_beside_the_change_pairs(self):
        payload = _aa_session({"lr": ([(0.5, 0.4)] * 3, TIGHT_AA)})
        assert payload["runs"]["lr"]["job_wall_s"] == {
            "parent": [0.5] * 3, "change": [0.4] * 3}
        assert payload["aa_runs"]["lr"]["job_wall_s"] == {
            "parent": [0.50, 0.50, 0.52], "again": [0.51, 0.49, 0.52]}
        assert payload["aa_seeds"] == {"lr": [1, 2, 3]}
        assert payload["jobs"]["lr"]["aa"] == {"attempted": 30, "failed": 0}
        sides = payload["aa_runs"]["lr"]["job_wall_s"]
        band = perf_pairs.aa_band(sides["parent"], sides["again"])
        assert band == {"low": pytest.approx(0.98),
                        "high": pytest.approx(1.02),
                        "iqr": pytest.approx(0.04), "pairs": 3}

    @pytest.mark.parametrize("aa_pairs", [
        TIGHT_AA,
        # A band wide enough to hold the move.
        [(0.50, 0.40), (0.50, 0.65), (0.50, 0.50)],
        # A band of one pair, and none at all.
        [(0.50, 0.50)], [],
    ], ids=["tight", "wide", "one-pair", "none"])
    def test_an_untouched_workload_moving_20_percent_is_never_within_band(
            self, aa_pairs):
        payload = _aa_session({"untouched": ([(0.50, 0.60)] * 3, aa_pairs)})
        assert _band_verdicts(payload)["untouched"] in {"drift",
                                                        "unresolved"}

    def test_each_band_verdict(self):
        payload = _aa_session({
            # 10 pairs at 0.79x, 9 won, beyond a ±2 % band: claimed.
            "claimed": ([(0.50, 0.395)] * 9 + [(0.50, 0.51)], TIGHT_AA),
            # Beyond the band on the better side, but 3 pairs: drift.
            "faster": ([(0.50, 0.40)] * 3, TIGHT_AA),
            # Beyond the band on the worse side: drift.
            "slower": ([(0.50, 0.60)] * 10, TIGHT_AA),
            # Inside the band on 6 pairs: within band; on 3: unresolved.
            "steady": ([(0.50, 0.505)] * 6, TIGHT_AA),
            "short": ([(0.50, 0.505)] * 3, TIGHT_AA),
        })
        assert _band_verdicts(payload) == {
            "claimed": "claimed", "faster": "drift", "slower": "drift",
            "steady": "within band", "short": "unresolved"}

    def test_a_session_without_aa_pairs_reads_unresolved(self):
        payload = perf_pairs.fold(VERDICTS, "")
        assert set(_band_verdicts(payload).values()) == {"unresolved"}

    def test_merge_replaces_the_aa_pairs_of_a_rerun_workload(self):
        old = _aa_session({"lr": ([(0.5, 0.4)] * 3, TIGHT_AA),
                           "wc": ([(0.2, 0.2)] * 3, TIGHT_AA)})
        new = _aa_session({"lr": ([(0.5, 0.45)] * 3, [])})
        merged = perf_pairs.merge(old, new)
        assert sorted(merged["runs"]) == ["lr", "wc"]
        assert sorted(merged["aa_runs"]) == ["wc"]
        assert merged["runs"]["lr"] == new["runs"]["lr"]

    def test_trajectory_carries_the_band_or_null(self):
        with_aa = _aa_session({"lr": ([(0.5, 0.4)] * 3, TIGHT_AA)})
        rows = perf_pairs.trajectory(
            [("with.json", with_aa),
             ("without.json", perf_pairs.fold(CANNED, ""))],
            {"job_wall_s": ("lower", 0.25)})["sessions"]
        sides = with_aa["aa_runs"]["lr"]["job_wall_s"]
        assert rows[0]["aa"] == {"lr": {"job_wall_s": perf_pairs.aa_band(
            sides["parent"], sides["again"])}}
        assert rows[1]["aa"] is None


def test_rereads_a_committed_pairs_file():
    path = os.path.join(ROOT, "benchmarks", "results",
                        "BENCH_perf_pairs_shuffle_write.json")
    with open(path) as handle:
        payload = json.load(handle)
    metrics = perf_pairs.end_to_end_metrics(ROOT)
    assert sorted(metrics) == ["job_cpu_s", "job_wall_s", "peak_rss_mb",
                               "setup_s"]
    lines = perf_pairs.report(payload, metrics)
    assert len(lines) == 1 + 4 * len(payload["runs"])
    s = perf_pairs.summarize(payload["runs"]["lr-cache-scan"]["job_wall_s"])
    assert (s["pairs"], s["wins"]) == (4, 4)
    assert s["p"] == pytest.approx(1 / 16)
    assert s["ratio"] == pytest.approx(0.7121 / 0.7664, abs=1e-4)
    for workload, seeds in payload["seeds"].items():
        for sides in payload["runs"][workload].values():
            assert len(sides["parent"]) == len(sides["change"]) == len(seeds)
