"""``scripts/diff_results.py``: number pairing and the verdict, on canned
result trees."""

from __future__ import annotations

import importlib.util
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "diff_results", os.path.join(ROOT, "scripts", "diff_results.py"))
diff_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_results)

OLD = {
    "fig.txt": "LR  40GB  spark  0.054  19.0%\nLR  80GB  deca  0.088  0.4%\n",
    "BENCH_x.json": '{"wall_ms": 22.904986, "gc_pause_ms": 0, "n": 3}\n',
    "notes.md": "ignored: 1 2 3\n",
    "gone.txt": "only here 1\n",
}


def write_tree(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return str(root)


def run(tmp_path, capsys, new_files):
    code = diff_results.main([write_tree(tmp_path / "old", OLD),
                              write_tree(tmp_path / "new", new_files)])
    return code, capsys.readouterr().out


def changed(**edits):
    files = {name: text for name, text in OLD.items() if name != "gone.txt"}
    files.update(edits)
    return files


def test_identical_trees_pass_and_list_one_sided_files(tmp_path, capsys):
    code, out = run(tmp_path, capsys, changed(**{"extra.json": "{}"}))
    assert code == 0
    assert "fig.txt: 0 numbers changed, largest relative change 0 — ok" \
        in out
    assert "gone.txt: only in the old tree" in out
    assert "extra.json: only in the new tree" in out
    assert "notes.md" not in out


def test_rounding_noise_and_int_float_spelling_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, changed(**{
        "BENCH_x.json": '{"wall_ms": 22.904987, "gc_pause_ms": 0.0, '
                        '"n": 3}\n'}))
    assert code == 0
    assert "BENCH_x.json: 1 numbers changed, largest relative change " \
           "4.37e-08 — ok" in out


@pytest.mark.parametrize("edit, verdict", [
    ({"fig.txt": OLD["fig.txt"].replace("0.088", "0.089")}, "MOVED"),
    ({"fig.txt": OLD["fig.txt"].replace("deca", "Deca")}, "TEXT DIFFERS"),
    ({"BENCH_x.json": OLD["BENCH_x.json"].replace(', "n": 3', "")},
     "TEXT DIFFERS"),
    ({"BENCH_x.json": OLD["BENCH_x.json"].replace(": 0,", ": 1e-9,")},
     "MOVED"),
])
def test_a_moved_number_or_changed_text_fails(tmp_path, capsys, edit,
                                              verdict):
    code, out = run(tmp_path, capsys, changed(**edit))
    assert code == 1
    (name,) = edit
    line = next(row for row in out.splitlines() if row.startswith(name))
    assert line.endswith(verdict)


def test_real_clock_files_are_reported_apart_and_never_fail(tmp_path,
                                                            capsys):
    old = dict(OLD, **{"mp_scaling.txt": "pr mp 0.638 s\n",
                       "BENCH_ablation_backend.json": '{"wall_s": 0.5}\n',
                       "BENCH_perf_pairs_x.json": '{"what": "a"}\n'})
    new = {name: text for name, text in old.items() if name != "gone.txt"}
    new.update({"mp_scaling.txt": "pr mp 0.701 s\n",
                "BENCH_ablation_backend.json": '{"wall_s": 0.4, "n": 1}\n',
                "BENCH_perf_pairs_x.json": '{"what": "b"}\n'})
    code = diff_results.main([write_tree(tmp_path / "old", old),
                              write_tree(tmp_path / "new", new)])
    out = capsys.readouterr().out
    assert code == 0
    sim, real = out.split("-- real clock (reported, not gated): 3 files\n")
    assert "-- sim clock: 2 files" in sim and "fig.txt" in sim
    assert "mp_scaling" not in sim
    assert "mp_scaling.txt: 1 numbers changed" in real
    assert real.count("TEXT DIFFERS") == 2
    # The same move in a sim-clock file fails.
    new["fig.txt"] = OLD["fig.txt"].replace("0.088", "0.089")
    assert diff_results.main([write_tree(tmp_path / "old2", old),
                              write_tree(tmp_path / "new2", new)]) == 1


def test_real_clock():
    assert diff_results.real_clock("sub/BENCH_mp_scaling.json")
    assert diff_results.real_clock("ablation_backend.txt")
    assert diff_results.real_clock("BENCH_perf_pairs_lr.json")
    assert not diff_results.real_clock("BENCH_ablation_memory.json")
    assert not diff_results.real_clock("fig9b_lr.txt")


def test_git_excludes_leave_out_exactly_the_real_clock_files(tmp_path,
                                                              capsys):
    """The pathspecs CI's drift gate passes to ``git diff`` exclude the
    real-clock files of any directory, and nothing else."""
    assert diff_results.main(["--git-excludes"]) == 0
    excludes = capsys.readouterr().out.split()
    assert excludes == diff_results.git_excludes()
    names = ["BENCH_ablation_backend.json", "ablation_backend.txt",
             "mp_scaling.txt", "BENCH_perf_pairs_lr.json",
             "BENCH_ablation_memory.json", "fig9b_lr.txt"]
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    for name in names:
        (results / name).write_text("1\n", encoding="utf-8")
    git = ["git", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    listed = subprocess.run(
        git + ["ls-files", "--others", "--", "benchmarks/results",
               *excludes], check=True, capture_output=True,
        text=True).stdout.split()
    assert sorted(listed) == sorted(
        f"benchmarks/results/{name}" for name in names
        if not diff_results.real_clock(name))


def test_relative_change():
    assert diff_results.relative_change(0.0, 0.0) == 0.0
    assert diff_results.relative_change(2.0, 1.0) == 0.5
    assert diff_results.relative_change(-1.0, 1.0) == 2.0
