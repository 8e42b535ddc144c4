#!/usr/bin/env python3
"""Compare the numbers of two result trees, file by file.

Usage::

    python scripts/diff_results.py OLD_DIR NEW_DIR
    python scripts/diff_results.py --git-excludes

Every ``.json`` and ``.txt`` file present under both directories (same
relative path) is read as text and split into its numbers and the text
between them.  The numbers are paired in order; for each file the
script prints how many changed and the largest relative change
``|new - old| / max(|old|, |new|)``.  Files present on one side only are
listed and not compared.

Exit status 1 when a number of a sim-clock file moved by ``TOLERANCE``
relative or more, or when its text between the numbers differs (a
changed word, or a number added or removed); 0 otherwise.  A change of
cost model that only removes rounding noise — summing the same costs
exactly instead of in floating point — passes.

The real-clock files (``REAL_CLOCK``: ``perf_counter`` seconds) differ
from run to run on any host; they are compared and reported apart, under
their own heading, and never fail the comparison.  ``--git-excludes``
prints them as git pathspecs, one a line (``:!*/<pattern>``), for a
``git diff`` of the result tree that leaves them out: CI's drift gate
reads its exclusions from there.
"""

from __future__ import annotations

import fnmatch
import os
import re
import sys

#: The largest relative move a number may make and still count as noise.
TOLERANCE = 1e-6
SUFFIXES = (".json", ".txt")
#: File-name patterns of the real-clock result files (the one list of
#: them: CI's drift gate reads it through ``--git-excludes``).
REAL_CLOCK = ("*ablation_backend*", "*mp_scaling*", "BENCH_perf_pairs_*",
              "BENCH_perf_trajectory*")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def result_files(root: str) -> set[str]:
    """Relative paths of the result files under *root*."""
    found = set()
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith(SUFFIXES):
                found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers of *text*, and the numbers."""
    return NUMBER.split(text), [float(n) for n in NUMBER.findall(text)]


def real_clock(path: str) -> bool:
    """Is the result file at *path* measured on the real clock?"""
    name = os.path.basename(path)
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in REAL_CLOCK)


def relative_change(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


def compare(old_text: str, new_text: str) -> tuple[bool, int, float]:
    """``(same text between the numbers, numbers changed, largest
    relative change)`` of two versions of one file."""
    old_words, old_numbers = split_numbers(old_text)
    new_words, new_numbers = split_numbers(new_text)
    changes = [relative_change(a, b)
               for a, b in zip(old_numbers, new_numbers) if a != b]
    return old_words == new_words, len(changes), max(changes, default=0.0)


def git_excludes() -> list[str]:
    """``REAL_CLOCK`` as git pathspecs that exclude those files in any
    directory."""
    return [f":!*/{pattern}" for pattern in REAL_CLOCK]


def main(argv: list[str]) -> int:
    if argv == ["--git-excludes"]:
        print("\n".join(git_excludes()))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: diff_results.py OLD_DIR NEW_DIR | --git-excludes")
        return 2
    old_root, new_root = argv
    old_files, new_files = result_files(old_root), result_files(new_root)
    failed = False
    for path in sorted(old_files ^ new_files):
        side = "old" if path in old_files else "new"
        print(f"{path}: only in the {side} tree")
    common = sorted(old_files & new_files)
    sim = [path for path in common if not real_clock(path)]
    real = [path for path in common if real_clock(path)]
    for heading, paths in (("sim clock", sim),
                           ("real clock (reported, not gated)", real)):
        if paths:
            print(f"-- {heading}: {len(paths)} files")
        for path in paths:
            with open(os.path.join(old_root, path), encoding="utf-8") as f:
                old_text = f.read()
            with open(os.path.join(new_root, path), encoding="utf-8") as f:
                new_text = f.read()
            same_text, changed, worst = compare(old_text, new_text)
            verdict = "ok"
            if not same_text:
                verdict = "TEXT DIFFERS"
            elif worst >= TOLERANCE:
                verdict = "MOVED"
            if paths is sim:
                failed = failed or verdict != "ok"
            print(f"{path}: {changed} numbers changed, largest relative "
                  f"change {worst:.3g} — {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
