"""Regression tests for scripts/check_mp_leaks.py.

The guard must catch all three segment-leak classes — unparseable
name, dead creator, and the live-creator orphan (creator pid alive but
registry entry gone) — while leaving segments a live creator's
journal still claims alone.  The journal itself (``+name`` / ``-name``
lines, appended in O(1) per registry operation) is maintained by
``repro.exec.shm``; the round-trip and property tests pin that contract.
"""

import importlib.util
import os
import tempfile
from multiprocessing import shared_memory
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.udt import LONG
from repro.exec import shm as shm_mod
from repro.exec.shm import (SegmentRef, ShmSegmentRegistry, manifest_path,
                            pack_records_segment, sweep_segments)
from repro.memory.layout import PrimitiveSlot, RecordSchema

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "check_mp_leaks.py")


def load_guard():
    spec = importlib.util.spec_from_file_location("check_mp_leaks",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def guard():
    return load_guard()


def shm_available() -> bool:
    return os.path.isdir("/dev/shm")


@pytest.mark.skipif(not shm_available(), reason="no /dev/shm")
def test_segment_leak_classes(guard):
    pid = os.getpid()
    held = []

    def make(name):
        seg = shared_memory.SharedMemory(name=name, create=True,
                                         size=64)
        held.append(seg)
        return seg

    owned = f"repro-mp-{pid}-91-owned"
    orphan = f"repro-mp-{pid}-91-orphan"
    dead = "repro-mp-999999991-91-dead"
    make(owned)
    make(orphan)
    make(dead)
    manifest = manifest_path(pid)
    with open(manifest, "w", encoding="utf-8") as handle:
        # The orphan was adopted once and let go without an unlink.
        handle.write(f"+{owned}\n+{orphan}\n-{orphan}\n")
    try:
        leaks = guard.leaked_segments()
        flat = "\n".join(leaks)
        # Live creator, manifest entry present: in use, not a leak.
        assert owned not in flat
        # Live creator, registry entry gone: the new orphan class.
        assert any(orphan in line and "registry entry gone" in line
                   for line in leaks)
        # Dead creator: flagged as before.
        assert any(dead in line and "dead" in line for line in leaks)
    finally:
        os.unlink(manifest)
        for seg in held:
            seg.close()
            seg.unlink()


@pytest.mark.skipif(not shm_available(), reason="no /dev/shm")
def test_missing_manifest_means_every_segment_is_orphaned(guard):
    pid = os.getpid()
    name = f"repro-mp-{pid}-92-nomanifest"
    seg = shared_memory.SharedMemory(name=name, create=True, size=64)
    assert not os.path.exists(manifest_path(pid))
    try:
        leaks = guard.leaked_segments()
        assert any(name in line and "registry entry gone" in line
                   for line in leaks)
    finally:
        seg.close()
        seg.unlink()


def test_manifest_segments_parser(guard, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(guard.tempfile, "gettempdir",
                        lambda: str(tmp_path))
    assert guard.manifest_segments(123) is None
    path = tmp_path / "repro-mp-manifest-123.journal"
    assert str(path) == manifest_path(123)
    path.write_text("+a\n+b\n+c\n-c\n")
    assert guard.manifest_segments(123) == {"a", "b"}
    # A write caught half-way (no trailing newline) is not an entry.
    path.write_text("+a\n+b\n-a")
    assert guard.manifest_segments(123) == {"a", "b"}
    path.write_text("+a\n+b\n+tor")
    assert guard.manifest_segments(123) == {"a", "b"}
    # Lines that are neither an adoption nor a release are skipped.
    path.write_text("not a journal\n+a\n\n")
    assert guard.manifest_segments(123) == {"a"}
    path.write_text("")
    assert guard.manifest_segments(123) == set()
    path.write_bytes(b"+a\n\xff\xfe\n")
    assert guard.manifest_segments(123) is None


def test_registry_round_trips_the_manifest(guard):
    """register publishes the journal entry; release retracts it."""
    name = f"repro-mp-{os.getpid()}-93-roundtrip"
    registry = ShmSegmentRegistry()
    registry.register(SegmentRef(name=name, nbytes=64, count=0))
    try:
        assert name in guard.manifest_segments(os.getpid())
    finally:
        registry.release(name)
    # After the final release the entry is gone (and the file too,
    # unless another live registry in this process still owns
    # segments).
    assert name not in (guard.manifest_segments(os.getpid()) or set())
    assert os.path.exists(manifest_path()) == bool(shm_mod._PENDING_UNLINK)
    assert name not in shm_mod._PENDING_UNLINK


# -- the journal mirrors the owned set ----------------------------------------

CELL = RecordSchema("cell", [("v", PrimitiveSlot(LONG))])

JOURNAL_OPS = st.lists(
    st.tuples(st.sampled_from(["register", "acquire", "release", "sweep",
                               "release_all"]),
              st.integers(0, 2), st.integers(0, 5)),
    max_size=40)


@pytest.mark.skipif(not shm_available(), reason="no /dev/shm")
@settings(max_examples=40, deadline=None)
@given(JOURNAL_OPS)
def test_journal_replay_equals_pending_unlink_after_every_step(ops):
    """Three registries share the process-wide owned set; whatever they
    do, replaying the journal the way the leak guard does yields exactly
    that set, a torn final line changes nothing, and the file exists
    only while something is owned."""
    guard = load_guard()
    pid = os.getpid()
    # Two name groups, so a prefix sweep takes some segments and not all.
    names = [f"repro-mp-{pid}-94-g{i % 2}-{i}" for i in range(6)]
    registries = [ShmSegmentRegistry() for _ in range(3)]

    def check():
        owned = guard.manifest_segments(pid)
        assert (owned or set()) == shm_mod._PENDING_UNLINK
        assert (owned is None) == (not shm_mod._PENDING_UNLINK)
        if owned is not None:
            size = os.path.getsize(manifest_path())
            with open(manifest_path(), "ab") as handle:
                handle.write(b"+repro-mp-torn")
            assert guard.manifest_segments(pid) == owned
            os.truncate(manifest_path(), size)

    try:
        for op, which, index in ops:
            registry, name = registries[which], names[index]
            if op == "register":
                if name in registry._refs:
                    continue
                if not os.path.exists(f"/dev/shm/{name}"):
                    # (Else still linked under another registry.)
                    pack_records_segment(name, CELL, [(index,)])
                registry.register(SegmentRef(name=name, nbytes=8, count=1))
            elif op == "acquire":
                if name in registry._refs:
                    registry.acquire(name)
            elif op == "release":
                registry.release(name)
            elif op == "sweep":
                sweep_segments(f"repro-mp-{pid}-94-g{index % 2}-")
            else:
                registry.release_all()
            check()
    finally:
        for registry in registries:
            registry.release_all()
        sweep_segments(f"repro-mp-{pid}-94-")
    check()


def test_registrations_cost_constant_bytes_each(guard):
    """400 live segments: the journal grows by one line per operation —
    the JSON manifest it replaced rewrote all live names every time."""
    pid = os.getpid()
    names = [f"repro-mp-{pid}-95-{i:03d}" for i in range(400)]
    registry = ShmSegmentRegistry()
    before = (os.path.getsize(manifest_path())
              if os.path.exists(manifest_path()) else 0)
    try:
        for name in names:
            registry.register(SegmentRef(name=name, nbytes=8, count=1))
        grown = os.path.getsize(manifest_path()) - before
        assert grown == sum(len(name) + 2 for name in names)
        assert set(names) <= guard.manifest_segments(pid)
    finally:
        registry.release_all()
    assert not set(names) & (guard.manifest_segments(pid) or set())
