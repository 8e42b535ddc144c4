"""Property-based tests: provenance safety of the mmap extent store.

Random interleavings of the tier's lifecycle verbs — swap-out (alloc),
view export, release, drop (free + poison + coalesce), swap-in and the
file growth each large alloc can force — must uphold two invariants:

* a live borrow never sits over a poisoned byte range: every path that
  frees an extent releases its exported views first (the protocol the
  DECA301 rule enforces statically), and the sanitizer records zero
  violations for the whole run;
* poison never leaks into promoted bytes: whatever holes an extent is
  packed into, swap-in / views always return exactly the bytes swapped
  out, never the 0xDB fill of a previous tenant.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.tier import PageStoreTier
from repro.obs.sanitizer import POISON_BYTE, Sanitizer

#: One random step: (verb, group index, size seed).
STEP = st.tuples(
    st.sampled_from(["out", "views", "release", "drop", "in", "grow"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=16),
)


def payload_for(index: int, size_seed: int) -> bytes:
    # Never the poison byte, so a poison leak is always detectable.
    fill = (index * 31 + size_seed) % 0xDA + 1
    return bytes([fill]) * (size_seed * 97)


class TierMachine:
    """Applies one random script to a fresh tier, checking invariants."""

    def __init__(self, tmp_path) -> None:
        self.sanitizer = Sanitizer()
        self.tier = PageStoreTier(str(tmp_path / "prop.bin"),
                                  sanitizer=self.sanitizer)
        self.contents: dict[str, bytes] = {}
        self.held: dict[str, list] = {}
        self.grow_serial = 0

    def step(self, verb: str, index: int, size_seed: int) -> None:
        name = f"g{index}"
        if verb == "out" and name not in self.contents:
            payload = payload_for(index, size_seed)
            self.tier.swap_out(name, [payload])
            self.contents[name] = payload
        elif verb == "views" and name in self.contents:
            self.held.setdefault(name, []).extend(self.tier.views(name))
        elif verb == "release":
            for view in self.held.pop(name, []):
                view.release()
        elif verb == "drop" and name in self.contents:
            # The lifetime protocol: exported views die before the
            # extent does.  (Violations of this ordering are the
            # seeded-bug fixtures' job, not this test's.)
            for view in self.held.pop(name, []):
                view.release()
            self.tier.drop(name)
            del self.contents[name]
        elif verb == "in" and name in self.contents:
            views = self.tier.swap_in(name)
            got = b"".join(bytes(v) for v in views)
            assert got == self.contents[name]
            self.held.setdefault(name, []).extend(views)
        elif verb == "grow":
            # An allocation large enough to force at least one remap.
            grow_name = f"grow{self.grow_serial}"
            self.grow_serial += 1
            self.tier.swap_out(grow_name,
                               [b"\x5b" * (self.tier.file_bytes + 4096)])
            self.tier.drop(grow_name)
        self.check_invariants()

    def check_invariants(self) -> None:
        # No violation of any slug, ever — the protocol above is safe.
        assert self.sanitizer.summary()["violations"] == 0
        # A live borrow never overlaps a poisoned (freed) range: every
        # held view belongs to a live extent, and its bytes are intact.
        for name, views in self.held.items():
            assert name in self.contents
            assert self.sanitizer.live_borrows("extent", name) >= 0
            got = b"".join(bytes(v) for v in views)
            expected = self.contents[name]
            assert len(got) % len(expected) == 0
            assert got == expected * (len(got) // len(expected))

    def finish(self) -> None:
        for views in self.held.values():
            for view in views:
                view.release()
        self.held.clear()
        # Everything released: the end-of-run check is clean.
        assert self.sanitizer.check_finish()["violations"] == 0
        self.tier.close()


@settings(max_examples=40, deadline=None)
@given(script=st.lists(STEP, min_size=1, max_size=40))
def test_random_interleavings_never_alias_poison(tmp_path_factory,
                                                 script):
    machine = TierMachine(tmp_path_factory.mktemp("tier-prop"))
    try:
        for verb, index, size_seed in script:
            machine.step(verb, index, size_seed)
    finally:
        machine.finish()


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                      min_size=2, max_size=12),
       churn=st.integers(min_value=0, max_value=3))
def test_poison_never_leaks_into_promoted_bytes(tmp_path_factory, sizes,
                                                churn):
    """Drop/reuse churn: every re-promotion returns pristine bytes."""
    sanitizer = Sanitizer()
    tier = PageStoreTier(
        str(tmp_path_factory.mktemp("tier-poison") / "t.bin"),
        sanitizer=sanitizer)
    try:
        for round_no, size in enumerate(sizes):
            victim = f"v{round_no}"
            tier.swap_out(victim, [b"\x11" * (size * 64)])
            tier.drop(victim)    # poisons the hole
            for c in range(churn):
                tier.swap_out(f"c{round_no}-{c}", [b"\x22" * 32])
            tenant = f"t{round_no}"
            payload = payload_for(round_no, size)
            tier.swap_out(tenant, [payload])
            got = b"".join(bytes(v) for v in tier.swap_in(tenant))
            assert POISON_BYTE not in got
            assert got == payload
        assert sanitizer.summary()["violations"] == 0
    finally:
        tier.close()
