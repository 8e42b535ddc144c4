#!/usr/bin/env python3
"""Compare a lint run's JSON output with the committed baseline.

Usage::

    python scripts/lint_gate.py BASELINE.json CURRENT.json

``python -m repro.bench lint --apps all --format json`` writes per-app
findings, plan tables and schema summaries.  The two audit families
(``engine``: borrow, ``race``) also count the ``functions`` and
``scope_methods`` they walked; those counts move whenever a function in
an audited module is added or deleted, with the findings unchanged, so
they are printed here (baseline -> current) and not compared.

Every other byte is compared: each file must read back as exactly the
text ``json.dumps(payload, indent=2) + "\\n"`` writes of its own payload
(the lint's own formatting, key order included), and the two texts with
the walk counts removed must be equal.

Exit status 1 when they differ (the apps whose entries differ are
named), 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Any

#: The audit families, and the summary keys that count what they walked.
AUDITS = ("engine", "race")
WALKED = ("functions", "scope_methods")


def dump(payload: Any) -> str:
    """*payload* as the lint prints it, in the key order it holds."""
    return json.dumps(payload, indent=2) + "\n"


def read(path: str) -> tuple[str, dict[str, Any], dict[str, dict[str, int]]]:
    """The file's text, its payload without the walk counts, and the
    walk counts by audit family."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    payload = json.loads(text)
    walked: dict[str, dict[str, int]] = {}
    for app in payload.get("apps", []):
        if app.get("app") in AUDITS:
            summary = app.get("summary", {})
            walked[app["app"]] = {key: summary.pop(key) for key in WALKED
                                  if key in summary}
    return text, payload, walked


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: lint_gate.py BASELINE.json CURRENT.json")
        return 2
    files = [read(path) for path in argv]
    (_, baseline, old_walked), (_, current, new_walked) = files
    print("functions / scope methods the audits walked (printed, not "
          "compared):")
    for family in AUDITS:
        old, new = old_walked.get(family, {}), new_walked.get(family, {})
        cells = ", ".join(f"{key} {old.get(key, '-')} -> {new.get(key, '-')}"
                          for key in WALKED if key in old or key in new)
        print(f"  {family}: {cells or '-'}")
    status = 0
    for path, (text, _, _) in zip(argv, files):
        if dump(json.loads(text)) != text:
            print(f"{path} is not formatted as the lint formats JSON")
            status = 1
    if dump(baseline) == dump(current):
        if status == 0:
            print("findings, plans and summaries: identical to the baseline")
        return status
    old_apps = {app["app"]: app for app in baseline.get("apps", [])}
    new_apps = {app["app"]: app for app in current.get("apps", [])}
    differing = sorted(
        name for name in old_apps.keys() | new_apps.keys()
        if dump(old_apps.get(name)) != dump(new_apps.get(name)))
    print("findings, plans or summaries DIFFER from the baseline: "
          + (", ".join(differing) or "top-level keys"))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
