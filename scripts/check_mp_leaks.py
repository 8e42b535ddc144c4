#!/usr/bin/env python
"""CI leak guard for the mp execution backend.

Runs *after* the mp test/bench steps and fails the job if the run left
anything behind that a correct segment lifecycle would have cleaned up:

* shared-memory segments — every segment the backend creates is named
  ``repro-mp-<pid>-...`` (repro.exec.shm.SEGMENT_PREFIX plus the
  driver pid), so a linked segment whose creator pid is dead is a leak
  of the registry, the atexit sweep or the worker-death orphan sweep.
  A segment whose creator is *alive* is checked against that process's
  registry journal (repro.exec.shm.manifest_path): present means the
  run still owns it, absent means the registry entry is gone and
  nothing will ever unlink it — the live-creator orphan;
* worker processes — mp workers are forked children of the test
  process and share its command line, so any surviving ``pytest`` /
  ``repro.bench`` process after those steps finished is a stray worker
  (a hang the per-test timeout should have reaped);
* cold-tier files — the mmap cold tier names its backing files
  ``repro-tier-<pid>-...`` (repro.memory.tier.TIER_FILE_PREFIX) in the
  temp directory and unlinks them on close/finalize, so a tier file
  whose embedded pid is no longer alive is an orphan the
  ``weakref.finalize`` hook failed to reap.

Exit status 0 = clean, 1 = leaks found (details on stdout).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

SHM_DIR = "/dev/shm"
SEGMENT_PREFIX = "repro-mp"
SEGMENT_PATTERN = re.compile(r"^repro-mp-(\d+)-")
TIER_PATTERN = re.compile(r"^repro-tier-(\d+)-")

#: Command lines mp workers inherit from the processes that fork them.
WORKER_PATTERNS = ("python -m pytest", "-m repro.bench")


def manifest_segments(pid: int) -> set[str] | None:
    """Segments the (alive) creator's registry still owns.

    Replays the creator's journal (``repro.exec.shm.manifest_path``: one
    ``+name`` line per segment adopted, one ``-name`` per segment let
    go) without importing the package — this script must run standalone
    in CI.  A final line with no newline is a write caught half-way and
    is ignored, like any line that is neither.  Returns ``None`` when
    the process has no journal (its registry owns nothing, so every
    surviving segment of that pid is an orphan).
    """
    path = os.path.join(tempfile.gettempdir(),
                        f"repro-mp-manifest-{pid}.journal")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, ValueError):
        return None
    owned: set[str] = set()
    for line in lines[:-1]:
        if line.startswith("+"):
            owned.add(line[1:])
        elif line.startswith("-"):
            owned.discard(line[1:])
    return owned


def leaked_segments() -> list[str]:
    """Linked ``repro-mp-*`` segments nothing will ever unlink.

    Three classes: a name with no parseable creator pid (flagged — the
    backend never produces one), a dead creator (the sweeps failed),
    and a *live* creator whose registry manifest no longer lists the
    segment (the registry dropped the entry without unlinking — the
    manifest-absent orphan a dead-pid check alone cannot see).
    Segments a live creator's manifest still claims are in use, not
    leaks.
    """
    if not os.path.isdir(SHM_DIR):
        return []
    leaks: list[str] = []
    manifests: dict[int, set[str] | None] = {}
    for entry in sorted(os.listdir(SHM_DIR)):
        if not entry.startswith(SEGMENT_PREFIX):
            continue
        match = SEGMENT_PATTERN.match(entry)
        if match is None:
            leaks.append(f"{entry} (no creator pid in name)")
            continue
        pid = int(match.group(1))
        if not _pid_alive(pid):
            leaks.append(f"{entry} (creator pid {pid} dead)")
            continue
        if pid not in manifests:
            manifests[pid] = manifest_segments(pid)
        owned = manifests[pid]
        if owned is None or entry not in owned:
            leaks.append(f"{entry} (creator pid {pid} alive but "
                         f"registry entry gone)")
    return leaks


def stray_processes() -> list[str]:
    strays: list[str] = []
    for pattern in WORKER_PATTERNS:
        try:
            proc = subprocess.run(["pgrep", "-af", pattern],
                                  capture_output=True, text=True,
                                  timeout=30)
        except (FileNotFoundError, subprocess.TimeoutExpired):
            continue
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line:
                continue
            pid = int(line.split(None, 1)[0])
            if pid == os.getpid():
                continue
            strays.append(line)
    return strays


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def orphaned_tier_files() -> list[str]:
    """Cold-tier mmap files whose creating process is dead."""
    tmpdir = tempfile.gettempdir()
    orphans: list[str] = []
    try:
        entries = os.listdir(tmpdir)
    except OSError:
        return []
    for entry in sorted(entries):
        match = TIER_PATTERN.match(entry)
        if match is None:
            continue
        if not _pid_alive(int(match.group(1))):
            orphans.append(os.path.join(tmpdir, entry))
    return orphans


def main() -> int:
    segments = leaked_segments()
    strays = stray_processes()
    tier_files = orphaned_tier_files()
    if segments:
        print(f"LEAK: {len(segments)} shared-memory segment(s) "
              f"still linked under {SHM_DIR}:")
        for name in segments:
            print(f"  {name}")
    if strays:
        print(f"LEAK: {len(strays)} stray worker process(es):")
        for line in strays:
            print(f"  {line}")
    if tier_files:
        print(f"LEAK: {len(tier_files)} orphaned cold-tier file(s):")
        for path in tier_files:
            print(f"  {path}")
    if segments or strays or tier_files:
        return 1
    print("clean: no leaked segments, no stray workers, "
          "no orphaned tier files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
