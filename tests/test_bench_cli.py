"""Tests for the ``python -m repro.bench`` command line."""

import copy
import json

import pytest

from repro.bench import report
from repro.bench.__main__ import build_parser, main
from repro.bench.experiments import (
    EXPERIMENTS,
    SQL,
    Experiment,
    Gate,
    run_experiment,
)
from repro.exec.shm import shm_available
from repro.lint.fixtures.drivers import FIXTURES


class TestCli:
    def test_wc_point_runs(self, capsys):
        assert main(["wc", "--size", "50GB", "--keys", "10M",
                     "--modes", "deca"]) == 0
        out = capsys.readouterr().out
        assert "repro.bench wc" in out
        assert "deca" in out
        assert "spark" not in out.replace("spark-ser", "")

    def test_lr_point_runs(self, capsys):
        assert main(["lr", "--label", "40GB", "--iterations", "2",
                     "--modes", "spark", "deca"]) == 0
        out = capsys.readouterr().out
        assert out.count("40GB") == 2

    def test_unknown_mode_exits(self):
        with pytest.raises(SystemExit):
            main(["wc", "--modes", "flink"])

    def test_unknown_label_exits(self):
        with pytest.raises(SystemExit):
            main(["lr", "--label", "999GB"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


#: Every ``repro.bench`` invocation that ci.yml, README, DESIGN, docs/,
#: the verify skill, the CLI docstring or a test passes.  Parsed, not
#: run: a documented flag cannot vanish silently.
DOCUMENTED = """
faults --modes spark --seed 17 --kill-prob 0.05 --json determinism_run1
faults --modes spark --json x
faults --kill-prob 0.1 --json my_run
trace
trace --json t1
trace --kill-prob 0.08
trace --seed 17 --kill-prob 0.08 --json trace_run1
lint
lint --apps all
lint --apps all --format json
lint --apps all --format sarif
lint --apps all --no-shadow
lint --apps lr pr --format json
lint --apps engine --no-shadow
lint --apps engine --no-shadow --check
lint --apps race --no-shadow
lint --apps race --no-shadow --check
lint --apps all --rules DECA2 --format sarif
lint --check
lint --check --format sarif
lint --update-baseline
sanitize
sanitize --fixtures-only
memory
memory --check
memory --json mem
tier
tier --check
sql
sql --check
backend
backend --check
lr --label 80GB --iterations 5
lr --label 40GB --iterations 2 --modes spark deca
kmeans --label 100GB
wc --size 150GB --keys 100M
wc --size 50GB --keys 10M --modes deca
pr --graph HB
cc --graph WB
""".strip().splitlines()


@pytest.mark.parametrize("line", DOCUMENTED)
def test_documented_invocation_parses(line):
    args = build_parser().parse_args(line.split())
    assert callable(args.func)


def test_every_experiment_has_the_same_two_flags():
    for row in EXPERIMENTS:
        args = build_parser().parse_args(
            [row.name, "--check", "--json", "out"])
        assert (args.row, args.check, args.json) == (row, True, "out")


class TestExperimentCommands:
    """The gated subcommands end to end, at the sizes CI runs them."""

    def test_sql_check_passes(self, capsys):
        assert main(["sql", "--check"]) == 0
        out = capsys.readouterr().out
        assert "clock=sim" in out
        assert out.count("gate ok") == len(SQL.gates)

    @pytest.mark.skipif(not shm_available(),
                        reason="platform has no shared memory")
    def test_backend_check_passes(self, capsys):
        assert main(["backend", "--check"]) == 0
        out = capsys.readouterr().out
        assert "clock=real" in out and "gate FAILED" not in out

    def test_sanitize_fixtures_all_fire(self, capsys):
        assert main(["sanitize", "--fixtures-only"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rules = [rule for rule, _drive in FIXTURES]
        fired = [line.split()[0] for line in lines
                 if line.rstrip().endswith("fired")]
        assert fired == rules

    def test_sanitize_json_needs_the_clean_runs(self):
        with pytest.raises(SystemExit):
            main(["sanitize", "--fixtures-only", "--json", "x"])


class TestDriver:
    """``run_experiment`` on a stand-in row: gates, status, payload."""

    ROW = Experiment(
        name="fake", element="a stand-in row", clock="sim", result="fake",
        title="Fake", run=lambda: {"a": {"x": 1}, "b": {"x": 2}},
        columns=(("x", "x"), ("2x", lambda cell: 2 * cell["x"])),
        gates=(Gate("a.x is one", lambda cells: cells["a"]["x"] == 1),
               Gate("b.x is one", lambda cells: cells["b"]["x"] == 1)),
        payload=lambda cells: {"points": cells})

    def test_gates_are_judged_only_under_check(self, capsys):
        assert run_experiment(self.ROW) == []
        assert "gate" not in capsys.readouterr().out
        assert run_experiment(self.ROW, check=True) == ["b.x is one"]
        captured = capsys.readouterr()
        assert "gate ok      a.x is one" in captured.out
        assert "gate FAILED  b.x is one" in captured.err

    def test_json_payload_names_benchmark_and_clock(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        run_experiment(self.ROW, json_name="out")
        assert json.loads((tmp_path / "out.json").read_text()) == {
            "benchmark": "fake", "clock": "sim",
            "points": {"a": {"x": 1}, "b": {"x": 2}}}
        run_experiment(self.ROW, commit=True)
        assert (tmp_path / "BENCH_fake.json").exists()
        assert (tmp_path / "fake.txt").read_text().splitlines()[-2:] \
            == ["1  2 ", "2  4 "]


# ---------------------------------------------------------------------------
# A gate that cannot fail is not a gate: for every gate of every row, one
# input on which exactly that gate fails.  PASSING holds the fewest fields
# the gates read, with the values a healthy run produces.
# ---------------------------------------------------------------------------

_DIGESTS = {"scan": "aa", "filter": "bb", "groupby": "cc", "topk": "dd"}
_MEM = dict(equivalent=True, spilled_bytes=0, borrows=0, evicts=0, rejects=0)
_MP = dict(equivalent=True, bytes_shared=4096, bytes_pickled_records=0)
_SIM = dict(equivalent=True, bytes_shared=0, bytes_pickled_records=0)
_QUIET = dict(sanitize={"violations": 0, "frees": 16, "forks": 2})

PASSING = {
    "memory": {
        "shuffle-heavy/static": {**_MEM, "spilled_bytes": 2517120},
        "shuffle-heavy/unified": _MEM,
        "cache-heavy/static": {**_MEM, "rejects": 4},
        "cache-heavy/unified": {**_MEM, "borrows": 4, "evicts": 4},
    },
    "tier": {
        "heap": dict(equivalent=True, swap_copy_bytes=4760000, tier={}),
        "mmap": dict(equivalent=True, swap_copy_bytes=0,
                     tier={"bytes_moved_out": 4760000}),
    },
    "sql": {
        "row": dict(digests=_DIGESTS, cached_bytes=1485800,
                    wall_ms=dict(scan=.046, filter=.049, groupby=.472)),
        "columnar": dict(digests=_DIGESTS, cached_bytes=926352,
                         wall_ms=dict(scan=.006, filter=.002, groupby=.248)),
        "swap_roundtrip": dict(
            resident_digests=_DIGESTS, promoted_digests=_DIGESTS,
            bytes_moved_out=926010, ledger_violations=0, swap_copy_bytes=0,
            tier={"bytes_moved_out": 926010, "bytes_moved_in": 926010}),
    },
    "backend": {"wc/sim": _SIM, "pr/sim": _SIM, "wc/mp": _MP,
                "pr/mp": {**_MP, "bytes_pickled_records": 9568}},
    "sanitize": {"wc/sim": _QUIET, "pr/mp": _QUIET},
}

#: (row, the gate that must fail, cell, field, the value that breaks it)
BREAKS = [
    ("memory", "same answers", "cache-heavy/unified", "equivalent", False),
    ("memory", "spills strictly less", "shuffle-heavy/static",
     "spilled_bytes", 0),
    ("memory", "spills strictly less", "shuffle-heavy/unified",
     "spilled_bytes", 2517120),
    ("memory", "borrows and is evicted", "cache-heavy/unified", "evicts", 0),
    ("memory", "rejects oversized", "cache-heavy/static", "rejects", 0),
    ("tier", "same answer", "mmap", "equivalent", False),
    ("tier", "heap tier pays", "heap", "swap_copy_bytes", 0),
    ("tier", "heap tier pays", "heap", "tier", {"bytes_moved_out": 1}),
    ("tier", "mmap tier moves", "mmap", "swap_copy_bytes", 1),
    ("tier", "mmap tier moves", "mmap", "tier", {"bytes_moved_out": 0}),
    ("sql", "agree on every query digest", "row", "digests",
     {**_DIGESTS, "topk": "ee"}),
    ("sql", "kernels are faster", "columnar", "wall_ms",
     dict(scan=.006, filter=.049, groupby=.248)),
    ("sql", "no larger than the row cache", "columnar", "cached_bytes",
     1485801),
    ("sql", "sanitizer clean", "swap_roundtrip", "ledger_violations", 1),
    ("sql", "sanitizer clean", "swap_roundtrip", "promoted_digests",
     {**_DIGESTS, "scan": "ee"}),
    ("sql", "demotes raw bytes", "swap_roundtrip", "swap_copy_bytes", 1),
    ("sql", "promotes the bytes back", "swap_roundtrip", "tier",
     {"bytes_moved_out": 926010, "bytes_moved_in": 0}),
    ("backend", "bit for bit", "pr/mp", "equivalent", False),
    ("backend", "without pickling a record", "wc/mp",
     "bytes_pickled_records", 8),
    ("backend", "shared pages", "pr/mp", "bytes_shared", 0),
    ("sanitize", "stayed silent", "pr/mp", "sanitize", {"violations": 1}),
    ("sanitize", "stayed silent", "wc/sim", "sanitize", {}),
]


def _failed(row, cells):
    return [gate.name for gate in row.gates if not gate.holds(cells)]


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.name)
def test_gates_hold_on_a_healthy_run(row):
    assert _failed(row, PASSING[row.name]) == []
    broken = {gate for name, gate, *_ in BREAKS if name == row.name}
    assert all(any(part in gate.name for part in broken)
               for gate in row.gates), "every gate needs a BREAKS case"


@pytest.mark.parametrize("name,gate,cell,field,value", BREAKS)
def test_gate_fails_on_its_broken_input(name, gate, cell, field, value):
    row = next(row for row in EXPERIMENTS if row.name == name)
    cells = copy.deepcopy(PASSING[name])
    cells[cell][field] = value
    failed = _failed(row, cells)
    assert len(failed) == 1 and gate in failed[0], failed
