#!/usr/bin/env python3
"""Compare the numbers of two result trees, file by file.

Usage::

    python scripts/diff_results.py OLD_DIR NEW_DIR

Every ``.json`` and ``.txt`` file present under both directories (same
relative path) is read as text and split into its numbers and the text
between them.  The numbers are paired in order; for each file the
script prints how many changed and the largest relative change
``|new - old| / max(|old|, |new|)``.  Files present on one side only are
listed and not compared.

Exit status 1 when a number moved by ``TOLERANCE`` relative or more, or
when the text between the numbers differs (a changed word, or a number
added or removed); 0 otherwise.  A change of cost model that only
removes rounding noise — summing the same costs exactly instead of in
floating point — passes.
"""

from __future__ import annotations

import os
import re
import sys

#: The largest relative move a number may make and still count as noise.
TOLERANCE = 1e-6
SUFFIXES = (".json", ".txt")
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: diff_results.py OLD_DIR NEW_DIR")
        return 2
    old_root, new_root = argv
    old_files, new_files = result_files(old_root), result_files(new_root)
    failed = False
    for path in sorted(old_files ^ new_files):
        side = "old" if path in old_files else "new"
        print(f"{path}: only in the {side} tree")
    for path in sorted(old_files & new_files):
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
        failed = failed or verdict != "ok"
        print(f"{path}: {changed} numbers changed, largest relative "
              f"change {worst:.3g} — {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
