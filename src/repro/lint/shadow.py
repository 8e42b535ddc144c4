"""The shadow validator: differential checking of the lifetime analysis.

The static analysis makes two kinds of promise (§3.1): a *soundness*
promise — records in decomposed containers never change data-size — and a
*precision* aspiration — object-form fallbacks happen only when sizes can
really vary.  The shadow validator instruments the runtime (page-group
appends via :mod:`repro.memory.page`, accessor writes via
:mod:`repro.memory.sudt`), records what actually happened during a real
run, and compares it against the optimizer's decomposition claims:

* ``DECA101`` (soundness) — a container the analysis declared SFST shows
  records of differing sizes, or any accessor attempted to resize a
  decomposed record/array;
* ``DECA102`` (imprecision) — a cache kept in object form as a VST, where
  every observed instance nevertheless had the same data-size.

Observer lists are empty in normal runs, so the instrumented hot paths
pay one truthiness check each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.size_type import SizeType
from ..core.plan import ContainerPlan
from ..memory import page as page_module
from ..memory import sudt as sudt_module
from ..memory import unified as unified_module
from ..memory.page import PageGroup
from ..memory.sudt import SudtMutation
from .findings import Finding, make_finding

if TYPE_CHECKING:
    from ..spark.context import DecaContext

# DECA102 samples at most this many records per cached dataset; measuring
# every object of a large cache would dwarf the run under validation.
IMPRECISION_SAMPLE = 64


@dataclass(frozen=True)
class PageAppend:
    """One record packed into a page group."""

    group: str
    schema: str
    size: int


@dataclass(frozen=True)
class ArenaEvent:
    """One storage-side accounting event from the unified arena."""

    event: str    # acquire / grow / release / evict / reject
    entry: str    # the storage-entry name (page groups use their name)
    nbytes: int


class ShadowRecorder:
    """Context manager that records runtime memory behaviour.

    While active, every ``PageGroup.append_record``, every SUDT accessor
    write, and (in unified memory mode) every arena ``memory.*`` event
    anywhere in the process is appended to this recorder.
    """

    def __init__(self) -> None:
        self.appends: list[PageAppend] = []
        self.mutations: list[SudtMutation] = []
        self.arena_events: list[ArenaEvent] = []

    # -- observer callbacks -------------------------------------------------
    def _on_record(self, group: PageGroup, schema: str, size: int) -> None:
        self.appends.append(PageAppend(group=group.name, schema=schema,
                                       size=size))

    def _on_mutation(self, event: SudtMutation) -> None:
        self.mutations.append(event)

    def _on_memory(self, event: str, payload: dict[str, object]) -> None:
        entry = payload.get("entry")
        if entry is None:
            return  # execution-side events carry no storage entry
        nbytes = payload.get("nbytes", 0)
        self.arena_events.append(ArenaEvent(
            event=event, entry=str(entry),
            nbytes=nbytes if isinstance(nbytes, int) else 0))

    # -- context management -------------------------------------------------
    def __enter__(self) -> "ShadowRecorder":
        page_module.add_record_observer(self._on_record)
        sudt_module.add_mutation_observer(self._on_mutation)
        unified_module.add_memory_observer(self._on_memory)
        return self

    def __exit__(self, *exc_info: object) -> None:
        page_module.remove_record_observer(self._on_record)
        sudt_module.remove_mutation_observer(self._on_mutation)
        unified_module.remove_memory_observer(self._on_memory)

    # -- derived views ------------------------------------------------------
    def sizes_by_schema(self) -> dict[str, list[int]]:
        """Observed record sizes grouped by schema label."""
        sizes: dict[str, list[int]] = {}
        for append in self.appends:
            sizes.setdefault(append.schema, []).append(append.size)
        return sizes

    def resize_attempts(self) -> list[SudtMutation]:
        return [m for m in self.mutations if m.is_resize]

    def arena_balances(self) -> dict[str, tuple[int, int]]:
        """Per storage entry: ``(peak_bytes, final_bytes)`` as the
        arena accounted them (acquire/grow add, release subtracts; an
        evict is always followed by its discard's release)."""
        current: dict[str, int] = {}
        peak: dict[str, int] = {}
        for event in self.arena_events:
            if event.event in ("acquire", "grow"):
                now = current.get(event.entry, 0) + event.nbytes
            elif event.event == "release":
                now = current.get(event.entry, 0) - event.nbytes
            else:
                continue  # evict/reject do not move the balance
            current[event.entry] = now
            peak[event.entry] = max(peak.get(event.entry, 0), now)
        return {name: (peak[name], current[name]) for name in peak}


def check_observations(app: str, recorder: ShadowRecorder,
                       plans: tuple[ContainerPlan, ...]) -> list[Finding]:
    """``DECA101``: observed behaviour vs. the static claims.

    Page-group record labels are schema names, and a schema's name is the
    UDT's name (:func:`repro.memory.layout.build_schema`), so observations
    join against the plans by UDT name.
    """
    findings: list[Finding] = []
    claims: dict[str, SizeType] = {}
    for plan in plans:
        if plan.decomposed and plan.udt \
                and plan.global_size_type is not None:
            claims[plan.udt] = plan.global_size_type

    for schema, sizes in sorted(recorder.sizes_by_schema().items()):
        claim = claims.get(schema)
        if claim is not SizeType.STATIC_FIXED:
            continue  # RFSTs may legally differ per record
        distinct = sorted(set(sizes))
        if len(distinct) <= 1:
            continue
        findings.append(make_finding(
            "DECA101", f"{app}/shadow", schema,
            f"static analysis classified {schema} as SFST (every instance "
            f"the same size), but the runtime packed records of "
            f"{len(distinct)} distinct sizes "
            f"({distinct[0]}..{distinct[-1]} bytes) into its pages",
            why=(f"[shadow.pages] {len(sizes)} records observed with "
                 f"sizes {distinct}",)))

    seen: set[tuple[str, str, int, int]] = set()
    for mutation in recorder.resize_attempts():
        key = (mutation.schema, mutation.kind, mutation.old_size,
               mutation.new_size)
        if key in seen:
            continue
        seen.add(key)
        findings.append(make_finding(
            "DECA101", f"{app}/shadow", mutation.schema,
            f"runtime attempted a {mutation.kind} on decomposed data "
            f"({mutation.old_size} -> {mutation.new_size}); a decomposed "
            "record's data-size must never change after construction "
            "(§3.1)",
            why=(f"[shadow.sudt] {mutation.kind} intercepted by the "
                 "accessor layer",)))
    return findings


def check_arena_accounting(app: str, recorder: ShadowRecorder,
                           plans: tuple[ContainerPlan, ...]
                           ) -> list[Finding]:
    """``DECA101``: arena-observed page-group bytes vs. static claims.

    In unified memory mode every page group's bytes flow through the
    arena's storage ledger (``memory.acquire``/``grow``/``release``
    events).  Two soundness obligations fall out:

    * the data packed into a group's pages can never exceed the bytes
      the arena accounted for it — if it does, the decomposed layout
      the size-type claim produced is smaller than the records the
      runtime actually wrote;
    * every group's ledger must balance (an entry can't end negative).
    """
    findings: list[Finding] = []
    balances = recorder.arena_balances()
    if not balances:
        return findings  # static mode: the arena observed nothing

    packed: dict[str, int] = {}
    schema_of: dict[str, str] = {}
    for append in recorder.appends:
        packed[append.group] = packed.get(append.group, 0) + append.size
        schema_of[append.group] = append.schema

    claims: dict[str, SizeType] = {}
    for plan in plans:
        if plan.decomposed and plan.udt \
                and plan.global_size_type is not None:
            claims[plan.udt] = plan.global_size_type

    for group in sorted(packed):
        if group not in balances:
            continue  # group never reached the arena (non-evictable)
        peak, final = balances[group]
        schema = schema_of[group]
        claim = claims.get(schema)
        if packed[group] > peak:
            claim_note = (f" (claimed {claim.name})"
                          if claim is not None else "")
            findings.append(make_finding(
                "DECA101", f"{app}/shadow", schema,
                f"the runtime packed {packed[group]} data bytes into "
                f"page group {group!r}, but the unified arena only ever "
                f"accounted {peak} bytes for it — the decomposed layout "
                f"derived from the size-type claim{claim_note} is "
                "smaller than the records actually written",
                why=(f"[shadow.arena] peak ledger {peak} B < packed "
                     f"{packed[group]} B over "
                     f"{len(recorder.arena_events)} arena events",)))
        if final < 0:
            findings.append(make_finding(
                "DECA101", f"{app}/shadow", schema,
                f"the arena ledger for page group {group!r} ends "
                f"{-final} bytes negative: more bytes were released "
                "than were ever acquired for it",
                why=("[shadow.arena] acquire/grow/release events do "
                     "not balance",)))
    return findings


def check_imprecision(app: str, ctx: "DecaContext",
                      plans: tuple[ContainerPlan, ...]) -> list[Finding]:
    """``DECA102``: object-form caches whose instances never varied.

    Not a bug — the analysis is conservative by design — but each note is
    a concrete precision gap worth a look (e.g. a missing init-only
    assumption or runtime symbol binding).
    """
    object_form: dict[str, ContainerPlan] = {}
    for plan in plans:
        if plan.target.startswith("cache:") and plan.udt \
                and not plan.decomposed \
                and plan.global_size_type is SizeType.VARIABLE:
            object_form[plan.target] = plan

    sizes_by_rdd: dict[str, set[int]] = {}
    counts_by_rdd: dict[str, int] = {}
    for executor in ctx.executors:
        for key, block in executor.cache.blocks.items():
            if block.records is None:
                continue
            rdd = ctx._rdds.get(key[0])
            if rdd is None or rdd.udt_info is None:
                continue
            if f"cache:{rdd.name}" not in object_form:
                continue
            info = rdd.udt_info
            sizes = sizes_by_rdd.setdefault(rdd.name, set())
            count = counts_by_rdd.get(rdd.name, 0)
            for record in block.records:
                if count >= IMPRECISION_SAMPLE:
                    break
                sizes.add(info.measure(record).data_bytes)
                count += 1
            counts_by_rdd[rdd.name] = count

    findings: list[Finding] = []
    for name in sorted(sizes_by_rdd):
        sizes = sizes_by_rdd[name]
        count = counts_by_rdd[name]
        if count < 2 or len(sizes) != 1:
            continue
        (size,) = sizes
        plan = object_form[f"cache:{name}"]
        findings.append(make_finding(
            "DECA102", f"{app}/cache:{name}", plan.udt or name,
            f"cache {name!r} stayed in object form (classified "
            f"variable-sized), yet all {count} sampled records measured "
            f"exactly {size} data bytes — the classification may be "
            "imprecise for this workload",
            why=(f"[shadow.cache] {count} records sampled, one distinct "
                 f"data-size ({size} B)",
                 f"[optimizer.plan] {plan.reason}")))
    return findings


def shadow_summary(recorder: ShadowRecorder,
                   plans: tuple[ContainerPlan, ...]) -> dict[str, object]:
    """Integer-only observation summary (safe for byte-stable baselines)."""
    schemas: dict[str, dict[str, int]] = {}
    for schema, sizes in sorted(recorder.sizes_by_schema().items()):
        schemas[schema] = {
            "records": len(sizes),
            "min_bytes": min(sizes),
            "max_bytes": max(sizes),
        }
    return {
        "page_records": len(recorder.appends),
        "schemas": schemas,
        "sudt_writes": sum(1 for m in recorder.mutations
                           if not m.is_resize),
        "resize_attempts": len(recorder.resize_attempts()),
        "plans": [plan.to_dict() for plan in plans],
    }
