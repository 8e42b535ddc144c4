"""The shadow validator: differential checking of the lifetime analysis.

The static analysis makes two kinds of promise (§3.1): a *soundness*
promise — records in decomposed containers never change data-size — and a
*precision* aspiration — object-form fallbacks happen only when sizes can
really vary.  A shadow run is the app run with ``sanitize=True``; the
validator then reads what the run left behind and compares it against
the optimizer's decomposition claims:

* the sanitizer's lifetime book (:meth:`repro.obs.sanitizer.Sanitizer.
  note_append`): the packed size of every record appended to a page
  group the memory manager created, by schema and by group;
* the run's trace: the unified arena's ``memory:*`` instants that name a
  storage entry (page groups use their name).

Accessor writes need no observation: every attempt to resize a
decomposed record or array raises ``PageOverflowError`` where it happens
(:mod:`repro.memory.sudt`).

* ``DECA101`` (soundness) — a container the analysis declared SFST shows
  records of differing sizes, or a group's packed bytes exceed what the
  arena ever accounted for it;
* ``DECA102`` (imprecision) — a cache kept in object form as a VST, where
  every observed instance nevertheless had the same data-size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.size_type import SizeType
from ..core.plan import ContainerPlan
from ..obs.sanitizer import Sanitizer
from ..obs.tracer import Tracer
from .findings import Finding, make_finding

if TYPE_CHECKING:
    from ..spark.context import DecaContext

# DECA102 samples at most this many records per cached dataset; measuring
# every object of a large cache would dwarf the run under validation.
IMPRECISION_SAMPLE = 64

_ARENA_PREFIX = "memory:"


def _sfst_claims(plans: tuple[ContainerPlan, ...]) -> dict[str, SizeType]:
    """Decomposed containers' global size-type claims, by UDT name."""
    return {plan.udt: plan.global_size_type for plan in plans
            if plan.decomposed and plan.udt
            and plan.global_size_type is not None}


def _arena_balances(tracer: Tracer
                    ) -> tuple[dict[str, tuple[int, int]], int]:
    """Per storage entry: ``(peak_bytes, final_bytes)`` as the arena
    accounted them (acquire/grow add, release subtracts; an evict is
    always followed by its discard's release), folded from the trace's
    ``memory:*`` instants that name an entry; and how many such events
    there were."""
    current: dict[str, int] = {}
    peak: dict[str, int] = {}
    events = 0
    for event in tracer.events:
        if not event.name.startswith(_ARENA_PREFIX):
            continue
        entry = event.args.get("entry")
        if entry is None:
            continue  # execution-side events carry no storage entry
        events += 1
        kind = event.name[len(_ARENA_PREFIX):]
        nbytes = event.args.get("nbytes", 0)
        nbytes = nbytes if isinstance(nbytes, int) else 0
        name = str(entry)
        if kind in ("acquire", "grow"):
            now = current.get(name, 0) + nbytes
        elif kind == "release":
            now = current.get(name, 0) - nbytes
        else:
            continue  # evict/reject do not move the balance
        current[name] = now
        peak[name] = max(peak.get(name, 0), now)
    return {name: (peak[name], current[name]) for name in peak}, events


def check_observations(app: str, sanitizer: Sanitizer,
                       plans: tuple[ContainerPlan, ...]) -> list[Finding]:
    """``DECA101``: observed record sizes vs. the static claims.

    Page-group record labels are schema names, and a schema's name is the
    UDT's name (:func:`repro.memory.layout.build_schema`), so observations
    join against the plans by UDT name.
    """
    findings: list[Finding] = []
    claims = _sfst_claims(plans)
    for schema, sizes in sorted(sanitizer.record_sizes.items()):
        if claims.get(schema) is not SizeType.STATIC_FIXED:
            continue  # RFSTs may legally differ per record
        distinct = sorted(sizes)
        if len(distinct) <= 1:
            continue
        findings.append(make_finding(
            "DECA101", f"{app}/shadow", schema,
            f"static analysis classified {schema} as SFST (every instance "
            f"the same size), but the runtime packed records of "
            f"{len(distinct)} distinct sizes "
            f"({distinct[0]}..{distinct[-1]} bytes) into its pages",
            why=(f"[shadow.pages] {sum(sizes.values())} records observed "
                 f"with sizes {distinct}",)))
    return findings


def check_arena_accounting(app: str, sanitizer: Sanitizer, tracer: Tracer,
                           plans: tuple[ContainerPlan, ...]
                           ) -> list[Finding]:
    """``DECA101``: arena-accounted page-group bytes vs. static claims.

    In unified memory mode every page group's bytes flow through the
    arena's storage ledger (``memory:acquire``/``grow``/``release``
    instants on the trace).  Two soundness obligations fall out:

    * the data packed into a group's pages can never exceed the bytes
      the arena accounted for it — if it does, the decomposed layout
      the size-type claim produced is smaller than the records the
      runtime actually wrote;
    * every group's ledger must balance (an entry can't end negative).
    """
    findings: list[Finding] = []
    balances, events = _arena_balances(tracer)
    if not balances:
        return findings  # static mode: the arena accounted nothing

    claims = _sfst_claims(plans)
    for group, (schema, packed) in sorted(sanitizer.group_bytes.items()):
        if group not in balances:
            continue  # group never reached the arena (non-evictable)
        peak, final = balances[group]
        claim = claims.get(schema)
        if packed > peak:
            claim_note = (f" (claimed {claim.name})"
                          if claim is not None else "")
            findings.append(make_finding(
                "DECA101", f"{app}/shadow", schema,
                f"the runtime packed {packed} data bytes into "
                f"page group {group!r}, but the unified arena only ever "
                f"accounted {peak} bytes for it — the decomposed layout "
                f"derived from the size-type claim{claim_note} is "
                "smaller than the records actually written",
                why=(f"[shadow.arena] peak ledger {peak} B < packed "
                     f"{packed} B over {events} arena events",)))
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


def shadow_summary(sanitizer: Sanitizer,
                   plans: tuple[ContainerPlan, ...]) -> dict[str, object]:
    """Integer-only observation summary (safe for byte-stable baselines)."""
    schemas: dict[str, dict[str, int]] = {}
    for schema, sizes in sorted(sanitizer.record_sizes.items()):
        schemas[schema] = {
            "records": sum(sizes.values()),
            "min_bytes": min(sizes),
            "max_bytes": max(sizes),
        }
    return {
        "page_records": sum(entry["records"] for entry in schemas.values()),
        "schemas": schemas,
        "plans": [plan.to_dict() for plan in plans],
    }
