"""``scripts/diff_results.py``: number pairing and the verdict, on canned
result trees."""

from __future__ import annotations

import importlib.util
import os

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


def test_relative_change():
    assert diff_results.relative_change(0.0, 0.0) == 0.0
    assert diff_results.relative_change(2.0, 1.0) == 0.5
    assert diff_results.relative_change(-1.0, 1.0) == 2.0
