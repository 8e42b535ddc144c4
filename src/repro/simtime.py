"""Simulated time.

Every executor owns a :class:`SimClock`; all cost models *advance* a clock
instead of sleeping.  Job wall-time is then ``max`` over the executors'
clocks, mirroring how a stage finishes when its slowest task finishes.

Time is counted in integer ticks (femtoseconds: the coarsest unit in
which every cost constant of :mod:`repro.config`, divided by 1, 2 or 4
task slots, is whole), so n charges of c ticks are exactly one charge of
n·c, in any order.  :func:`ms_to_ticks` is the one way in from
milliseconds, :func:`ticks_to_ms` (or an :class:`MsView`) the way out,
where results leave the engine.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .errors import DecaError

#: Ticks (femtoseconds) per simulated millisecond.
TICKS_PER_MS = 10 ** 12


def ms_to_ticks(ms: float) -> int:
    """*ms* milliseconds, rounded to the nearest tick."""
    return round(ms * TICKS_PER_MS)


def ticks_to_ms(ticks: int) -> float:
    """*ticks* in milliseconds, for results leaving the engine."""
    return ticks / TICKS_PER_MS


class MsView:
    """A read-only millisecond view of the tick attribute named like it
    (``compute_ms`` reads ``compute_ticks``)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.attr = name.removesuffix("_ms") + "_ticks"

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        return ticks_to_ms(getattr(obj, self.attr))


class SimClock:
    """A monotonically increasing clock counting integer ticks."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int = 0) -> None:
        if ticks < 0:
            raise DecaError("clock cannot start before zero")
        self.ticks = ticks

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return ticks_to_ms(self.ticks)

    def advance(self, ticks: int) -> int:
        """Move the clock forward by *ticks* and return the new time.

        Negative deltas are rejected: simulated time never runs backwards.
        """
        if ticks < 0:
            raise DecaError(f"cannot advance clock by {ticks} ticks")
        self.ticks += ticks
        return self.ticks

    def advance_to(self, ticks: int) -> int:
        """Move the clock forward to *ticks* if it is in the future."""
        if ticks > self.ticks:
            self.ticks = ticks
        return self.ticks

    def __repr__(self) -> str:
        return f"SimClock(now={self.now_ms:.3f} ms)"


class Prices:
    """One executor's cost tables in ticks: every ``*_ms`` constant of
    ``config.cpu``, ``config.io`` and ``config.serializer`` divided once
    by ``config.tasks_per_executor``, named without its ``_ms`` suffix."""

    record_op: int
    arithmetic_per_dim: int
    hash_probe: int
    sort_per_record: int
    object_alloc: int
    boxing: int
    page_access: int
    disk_write_per_byte: int
    disk_read_per_byte: int
    disk_seek: int
    network_per_byte: int
    network_rtt: int
    tier_write_per_byte: int
    tier_read_per_byte: int
    kryo_ser_per_object: int
    kryo_deser_per_object: int
    deca_write_per_object: int
    deca_read_per_object: int
    per_byte: int

    def __init__(self, config: Any) -> None:
        self.slots = config.tasks_per_executor
        for table in (config.cpu, config.io, config.serializer):
            for cost in fields(table):
                setattr(self, cost.name.removesuffix("_ms"),
                        self.per_slot(getattr(table, cost.name)))

    def per_slot(self, ms: float) -> int:
        """Ticks of an *ms* cost on one of this executor's slots."""
        return ms_to_ticks(ms / self.slots)
