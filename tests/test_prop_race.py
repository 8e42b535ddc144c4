"""Property-based tests: the vector-clock race sanitizer on real paths.

Two invariants, mirroring the DECA30x provenance properties one
protocol layer up:

* random *legal* interleavings of the concurrency protocol — segment
  register/acquire/release/unlink on a real
  :class:`~repro.exec.shm.ShmSegmentRegistry`, extent
  alloc/view/grow/free on a real
  :class:`~repro.memory.tier.PageStoreTier`, arena pool CAS
  transitions, grant/release pairs and worker fork→access→absorb→exit
  cycles — never record a single vclock violation.  The protocol the
  engine actually follows is race-free by construction, and the
  sanitizer must agree on every schedule;
* every seeded DECA40x bug fixture always trips the sanitizer with
  exactly its slug, on every run (the fixtures are deterministic, so
  this half is a straight sweep over the fixture driver table).
"""

from hypothesis import given, settings, strategies as st

from repro.exec.shm import SegmentRef, ShmSegmentRegistry
from repro.lint.fixtures.drivers import run_fixtures
from repro.memory.tier import PageStoreTier
from repro.obs.vclock import RACE_SLUGS, VClockChecker

#: One random step: (verb, resource index, payload seed).
STEP = st.tuples(
    st.sampled_from(["seg_new", "seg_acq", "seg_rel",
                     "ext_new", "ext_view", "ext_drop",
                     "grow", "pool", "grant", "worker"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=16),
)


class ProtocolMachine:
    """Applies one random legal schedule, asserting zero violations.

    Legality means exactly the ordering discipline the engine keeps:
    refcounts reach zero before unlink, exported views die before the
    extent does, pool writes carry the version they were derived from,
    grants are released, and worker notes are absorbed at the wave
    barrier before the driver reclaims anything the worker touched.
    """

    def __init__(self, tmp_path) -> None:
        self.checker = VClockChecker()
        self.registry = ShmSegmentRegistry(vclock=self.checker)
        self.tier = PageStoreTier(str(tmp_path / "prop.bin"),
                                  vclock=self.checker)
        self.seg_refs: dict[str, int] = {}
        self.extents: set[str] = set()
        self.held: dict[str, list] = {}
        self.worker_serial = 0
        self.grow_serial = 0

    def step(self, verb: str, index: int, seed: int) -> None:
        seg = f"repro-propseg-{index}"
        ext = f"ext{index}"
        if verb == "seg_new" and seg not in self.seg_refs:
            # Rebirth of a previously unlinked name is legal: the
            # create kills the old reclaim record (DECA401's window
            # only exists *between* unlink and re-create).
            self.registry.register(
                SegmentRef(name=seg, nbytes=seed * 64, count=0))
            self.seg_refs[seg] = 1
        elif verb == "seg_acq" and seg in self.seg_refs:
            self.registry.acquire(seg)
            self.seg_refs[seg] += 1
        elif verb == "seg_rel" and self.seg_refs.get(seg, 0) > 1:
            # The final release (→ unlink) is finish()'s job, so a
            # mid-schedule release never drops the count to zero here.
            self.registry.release(seg)
            self.seg_refs[seg] -= 1
        elif verb == "ext_new" and ext not in self.extents:
            self.tier.swap_out(ext, [b"\x11" * (seed * 97)])
            self.extents.add(ext)
        elif verb == "ext_view" and ext in self.extents:
            self.held.setdefault(ext, []).extend(self.tier.views(ext))
        elif verb == "ext_drop" and ext in self.extents:
            for view in self.held.pop(ext, []):
                view.release()
            self.tier.drop(ext)
            self.extents.discard(ext)
        elif verb == "grow":
            name = f"grow{self.grow_serial}"
            self.grow_serial += 1
            self.tier.swap_out(
                name, [b"\x5b" * (self.tier.file_bytes + 4096)])
            self.tier.drop(name)
        elif verb == "pool":
            version = self.checker.pool_read("execution")
            self.checker.pool_write("execution", based_on=version)
        elif verb == "grant":
            token = f"arena:0:{self.worker_serial}-{index}"
            self.checker.note_grant(token)
            self.checker.note_grant_release(token)
        elif verb == "worker":
            self._worker_cycle(seed)
        assert self.checker.summary()["violations"] == 0

    def _worker_cycle(self, seed: int) -> None:
        """Fork → remote accesses → absorb → wave-barrier exit."""
        actor = f"w{self.worker_serial}"
        self.worker_serial += 1
        snapshot = self.checker.fork(actor)
        worker = VClockChecker(actor=actor, snapshot=snapshot)
        for offset, seg in enumerate(sorted(self.seg_refs)):
            if (seed + offset) % 2:
                worker.note_attach("segment", seg)
        for offset, ext in enumerate(sorted(self.extents)):
            if (seed + offset) % 2:
                worker.note_access("extent", ext)
        # Absorb *before* any later reclaim: the wave-barrier ordering
        # the mp driver keeps, and exactly what makes the schedule
        # race-free.
        self.checker.absorb(worker.export_notes(drain=True))
        self.checker.exit_actor(actor)

    def finish(self) -> None:
        for views in self.held.values():
            for view in views:
                view.release()
        self.held.clear()
        for seg, count in sorted(self.seg_refs.items()):
            for _ in range(count):
                self.registry.release(seg)
        self.seg_refs.clear()
        for ext in sorted(self.extents):
            self.tier.drop(ext)
        self.extents.clear()
        assert self.checker.check_finish()["violations"] == 0
        self.tier.close()


@settings(max_examples=40, deadline=None)
@given(script=st.lists(STEP, min_size=1, max_size=40))
def test_legal_interleavings_never_violate(tmp_path_factory, script):
    machine = ProtocolMachine(tmp_path_factory.mktemp("race-prop"))
    try:
        for verb, index, seed in script:
            machine.step(verb, index, seed)
    finally:
        machine.finish()


@settings(max_examples=25, deadline=None)
@given(join_first=st.booleans(),
       tasks=st.integers(min_value=1, max_value=5))
def test_result_handoff_safe_iff_joined(join_first, tasks):
    """Consuming a result is clean iff the wave barrier ran first.

    The producing worker's clock only reaches the driver through a
    join edge (queue get / process join); consuming before that edge
    is exactly DECA405, and it fires for every task in the wave.
    """
    checker = VClockChecker()
    checker.fork("w0")
    for task in range(tasks):
        checker.note_result_produced(f"t{task}", actor="w0")
    if join_first:
        # The join edge is the clock merge (absorb of the worker's
        # notes / process join), not the mere death record.
        checker.join("w0")
        checker.exit_actor("w0")
    for task in range(tasks):
        checker.note_result_consumed(f"t{task}")
    expected = 0 if join_first else tasks
    assert checker.summary()["violations"] == expected
    assert checker.counters["wave-barrier-bypass"] == expected


def test_every_race_fixture_always_fires():
    rows = run_fixtures("DECA4")
    assert len(rows) == len(RACE_SLUGS)
    for row in rows:
        assert row["fired"], f"{row['rule']} did not trip the vclock"
        assert row["violations"] >= 1
