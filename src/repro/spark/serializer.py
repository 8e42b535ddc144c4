"""Serializer cost model (Kryo-like).

Spark serializes records when caching with ``MEMORY_ONLY_SER``, when
spilling, and when shuffling across executors.  The paper measures Kryo at
a per-object serialization cost and a ~7x higher deserialization cost
(Table 5, bottom), while Deca's "serialization" is just writing the raw
bytes (no deserialization at all — field reads go to the bytes).

This module charges those costs to a simulated clock; the actual byte
production in SparkSer mode uses the same layout schemas as Deca (the bytes
are real either way — only the *charged time* differs).
"""

from __future__ import annotations

from ..simtime import Prices, SimClock


class SerializerModel:
    """Charges serialization costs, in ticks read from the executor's
    *prices*, to its clock."""

    def __init__(self, prices: Prices, clock: SimClock) -> None:
        self.prices = prices
        self.clock = clock
        self.ser_ticks = 0
        self.deser_ticks = 0
        # Bytes the *heap* cold tier round-trips through Python-heap
        # copies while swapping Deca blocks (the cost the mmap tier
        # eliminates).  A byte counter only — it never advances the
        # clock, so heap-mode timings stay identical to the seed.
        self.swap_copy_bytes_total = 0
        # Optional sink called with each deserialization charge's ticks so
        # the executor can attribute the time to the running task
        # (Fig. 11).
        self.on_deserialize = None

    def _charge(self, kind: str, ticks: int) -> int:
        self.clock.advance(ticks)
        if kind == "ser":
            self.ser_ticks += ticks
        else:
            self.deser_ticks += ticks
            if self.on_deserialize is not None:
                self.on_deserialize(ticks)
        return ticks

    def note_swap_copy(self, nbytes: int) -> None:
        """Count *nbytes* of swap-path heap copies (no time charge)."""
        self.swap_copy_bytes_total += nbytes

    # -- Kryo ------------------------------------------------------------------
    def kryo_serialize(self, objects: int, nbytes: int) -> int:
        """Charge serializing *objects* totalling *nbytes*."""
        p = self.prices
        return self._charge("ser", p.kryo_ser_per_object * objects
                            + p.per_byte * nbytes)

    def kryo_deserialize(self, objects: int, nbytes: int) -> int:
        """Charge deserializing — the expensive direction for Kryo."""
        p = self.prices
        return self._charge("deser", p.kryo_deser_per_object * objects
                            + p.per_byte * nbytes)

    # -- Deca -------------------------------------------------------------------
    def deca_write(self, objects: int, nbytes: int) -> int:
        """Charge decomposing records into page bytes (ser-equivalent)."""
        p = self.prices
        return self._charge("ser", p.deca_write_per_object * objects
                            + p.per_byte * nbytes)

    def deca_read(self, objects: int, nbytes: int) -> int:
        """Charge reading decomposed records (free: direct byte access)."""
        return self._charge("deser",
                            self.prices.deca_read_per_object * objects)
