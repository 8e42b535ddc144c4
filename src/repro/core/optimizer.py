"""The hybrid Deca optimizer (paper §5, Appendix A).

A static enumeration of every possible job suffers path explosion, so Deca
optimizes *at runtime*: when a job first materializes a cached dataset or
a shuffle, the optimizer

1. runs the UDT classification — local (Algorithm 1) then global
   (Algorithms 2–4) over the dataset's declared stage call graph;
2. resolves the symbolic array lengths of the analysis against the job's
   runtime symbol bindings (the driver knows the actual dimension by now);
3. builds the byte layout of the container's records from the refined
   size-type and the resolved lengths, falling back to object form when
   records escape a consuming UDF, the size-type is not decomposable or
   no layout exists;
4. emits one :class:`~repro.core.plan.ContainerPlan` that the engine
   executes — the stand-in for the bytecode transformation of Appendix B,
   with synthesized accessor classes taking the place of rewritten
   methods.

Plans are memoized per dataset/shuffle, mirroring how transformed classes
are generated once and shipped to every executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.global_refine import GlobalClassifier
from ..analysis.local import classify_locally
from ..analysis.size_type import SizeType
from ..analysis.symconst import Affine
from ..analysis.udt import ClassType, PrimitiveType
from ..errors import MemoryLayoutError
from ..memory.layout import build_schema, columnar_plan
from ..spark.shuffle import ShuffleKind
from .plan import ContainerPlan, StorageStrategy

if TYPE_CHECKING:
    from ..analysis.closures import ClosureReport
    from ..spark.context import DecaContext
    from ..spark.rdd import RDD, ShuffleDependency, UdtInfo
    from ..sql.schema import TableSchema


class DecaOptimizer:
    """Plans cache and shuffle storage for a context in DECA mode."""

    def __init__(self, ctx: "DecaContext") -> None:
        self.ctx = ctx
        # The context's plan table: (container family, id) -> plan, in
        # creation order.
        self._plans = ctx._plans
        self._closure_reports: dict[int, "ClosureReport | None"] = {}

    @property
    def reports(self) -> list[ContainerPlan]:
        """Every plan made so far, oldest first (what lint audits)."""
        return list(self._plans.values())

    # -- cached datasets --------------------------------------------------------
    def plan_cache(self, rdd: "RDD") -> ContainerPlan:
        key = ("cache", rdd.rdd_id)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(
                f"cache:{rdd.name}", rdd.udt_info, cached=rdd)
        return plan

    def _escaping_consumer(self, rdd: "RDD") -> str | None:
        """Name of a registered consumer UDF with an ``escapes`` verdict.

        Walks the RDDs registered so far for direct children of *rdd*
        (narrow or shuffle dependents) and runs the closure analyzer on
        their record functions.  Only a *definite* escape downgrades the
        plan — ``unknown`` verdicts leave decomposition to the size-type
        rules, which already handle unanalyzed code conservatively.
        """
        from ..analysis.closures import analyze_value

        for rdd_id in sorted(self.ctx._rdds):
            child = self.ctx._rdds[rdd_id]
            if not any(dep.parent is rdd for dep in child.deps):
                continue
            fn = getattr(child, "_record_fn", None)
            if fn is None:
                continue
            report = self._closure_reports.get(rdd_id)
            if report is None and rdd_id not in self._closure_reports:
                try:
                    report = analyze_value(fn)
                except TypeError:
                    report = None
                self._closure_reports[rdd_id] = report
            if report is not None and report.escape == "escapes":
                return f"{child.name}#{report.qualname}"
        return None

    # -- shuffles ---------------------------------------------------------------
    def plan_shuffle(self, dep: "ShuffleDependency") -> ContainerPlan:
        key = ("shuffle", dep.shuffle_id)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(
                f"shuffle:{dep.shuffle_id}:{dep.parent.name}",
                dep.parent.udt_info, dep=dep)
        return plan

    # -- the one decision routine ------------------------------------------------
    def _plan(self, target: str, info: "UdtInfo | None", *,
              cached: "RDD | None" = None,
              dep: "ShuffleDependency | None" = None) -> ContainerPlan:
        """Classify → resolve lengths → lay out → explain: the plan of
        the cached dataset *cached* or of the shuffle *dep*."""
        measure = dep.parent.measure_record if dep is not None else None
        tag = dep.tag if dep is not None else None

        def object_form(reason: str, local: SizeType | None = None,
                        refined: SizeType | None = None) -> ContainerPlan:
            return ContainerPlan(
                target=target, udt=info.udt.name if info else None,
                local_size_type=local, global_size_type=refined,
                decomposed=False, reason=reason, measure=measure, tag=tag)

        if info is None:
            return object_form("no UDT declared" if dep is None else
                               "no UDT declared for the shuffled records")
        escaper = (self._escaping_consumer(cached)
                   if cached is not None else None)
        if escaper is not None:
            # A consuming UDF lets records outlive the call (stored into
            # captured state or closed over) — decomposed page records
            # would dangle once the page group is reclaimed, so the
            # container must stay in object form (§4.2).
            return object_form(
                f"records escape consuming UDF {escaper}; "
                "closure analysis forces object form")

        local, refined, classifier = self._classify(info)
        if refined is None or not refined.decomposable:
            if dep is None:
                return object_form(
                    f"size-type {refined.value if refined else '?'} "
                    "cannot be safely decomposed", local, refined)
            # Fig. 7(b): a grouped Value array is a VST inside the buffer;
            # the buffer keeps object form (a later cache may still
            # decompose — that is the cache plan's business).
            return object_form("records not decomposable inside the buffer",
                               local, refined)
        try:
            schema = build_schema(
                info.udt, refined,
                fixed_lengths=self._resolve_fixed_lengths(info, classifier))
        except MemoryLayoutError as exc:
            return object_form(f"layout failed: {exc}", local, refined)

        value_reuse = pointer_array = False
        reason = "decomposed into cache-block page groups"
        if dep is not None:
            value_reuse = (dep.kind is ShuffleKind.COMBINE
                           and self._value_field_is_sfst(info, classifier))
            pointer_array = not self._statically_addressable(info,
                                                             classifier)
            reason = ("decomposed into shuffle-buffer page groups"
                      + (" with value segment reuse" if value_reuse else "")
                      + ("" if pointer_array else ", pointer array elided"))
        return ContainerPlan(
            target=target, udt=info.udt.name, local_size_type=local,
            global_size_type=refined, decomposed=True, reason=reason,
            strategy=StorageStrategy.DECA_PAGES, schema=schema,
            encode=info.encode, decode=info.decode, measure=measure,
            value_segment_reuse=value_reuse, pointer_array=pointer_array,
            tag=tag)

    # -- shared machinery ------------------------------------------------------------
    def _classify(self, info: "UdtInfo") -> tuple[
            SizeType, SizeType | None, GlobalClassifier | None]:
        local = classify_locally(info.udt)
        callgraph = info.callgraph()
        if callgraph is None:
            # No code to analyze: only the local result is available.
            return local, local, None
        classifier = GlobalClassifier(
            callgraph, assume_init_only=info.assume_init_only)
        return local, classifier.classify(info.udt), classifier

    def _resolve_fixed_lengths(self, info: "UdtInfo",
                               classifier: GlobalClassifier | None
                               ) -> dict[int, int]:
        """Turn proved-equal symbolic lengths into concrete integers.

        The analysis proves *equality* of allocation lengths; the runtime
        optimizer knows the actual values (Appendix A's hybrid split) via
        ``info.runtime_symbols``.
        """
        if classifier is None:
            return {}
        fixed: dict[int, int] = {}
        facts = classifier.callgraph.facts
        for type_id, sites in facts.array_sites.items():
            if not sites:
                continue
            length = sites[0].length
            if not isinstance(length, Affine):
                continue
            if any(site.length != length for site in sites):
                continue
            resolved = self._resolve_affine(length, info.runtime_symbols)
            if resolved is not None:
                fixed[type_id] = resolved
        return fixed

    @staticmethod
    def _resolve_affine(length: Affine,
                        symbols: dict[str, int]) -> int | None:
        total = length.offset
        for label, coeff in length.coeffs:
            value = symbols.get(label)
            if value is None:
                return None
            total += coeff * value
        if total < 0 or total != int(total):
            return None
        return int(total)

    def _value_field_is_sfst(self, info: "UdtInfo",
                             classifier: GlobalClassifier | None) -> bool:
        """Is the Value part of a KV pair an SFST (segment reuse, §4.3.2)?"""
        udt = info.udt
        if not isinstance(udt, ClassType) or len(udt.fields) < 2:
            return False
        value_field = udt.fields[-1]
        return self._field_is_sfst(value_field, classifier)

    def _statically_addressable(self, info: "UdtInfo",
                                classifier: GlobalClassifier | None
                                ) -> bool:
        """Both Key and Value primitives/SFSTs → offsets are static and
        the pointer array can be elided (§4.3.2)."""
        udt = info.udt
        if not isinstance(udt, ClassType):
            return False
        return all(self._field_is_sfst(field, classifier)
                   for field in udt.fields)

    def _field_is_sfst(self, field, classifier) -> bool:
        for runtime_type in field.get_type_set():
            if isinstance(runtime_type, PrimitiveType):
                continue
            if classifier is None:
                if classify_locally(runtime_type) \
                        is not SizeType.STATIC_FIXED:
                    return False
            elif classifier.classify(runtime_type) \
                    is not SizeType.STATIC_FIXED:
                return False
        return True


# -- SQL cache layout --------------------------------------------------------
@dataclass(frozen=True)
class SqlLayoutPlan:
    """The optimizer's row-vs-columnar decision for one cached relation."""

    table: str
    layout: str  # "columnar" | "row"
    size_type: SizeType | None
    reason: str

    def to_dict(self) -> dict[str, object]:
        return {
            "table": self.table,
            "layout": self.layout,
            "size_type": self.size_type.value if self.size_type else None,
            "reason": self.reason,
        }


def plan_sql_layout(schema: "TableSchema") -> SqlLayoutPlan:
    """Decide the cache layout for a SQL relation.

    Column-major needs a fixed-schema (UDT-F) relation: the synthesized
    UDT must classify decomposable (Algorithm 1 over one field per
    column) and every field must have a per-column layout
    (:func:`~repro.memory.layout.columnar_plan`).  Opaque payload
    columns fail that — their element type-sets are polymorphic — so
    those relations fall back to the row-major record layout.
    """
    from ..sql.schema import table_udt

    udt = table_udt(schema)
    size_type = classify_locally(udt)
    if not size_type.decomposable:
        return SqlLayoutPlan(
            table=schema.name, layout="row", size_type=size_type,
            reason=f"{udt.name} classifies {size_type.value}; "
                   "caching row-major")
    try:
        record = build_schema(udt, size_type)
        columnar_plan(record)
    except MemoryLayoutError as exc:
        return SqlLayoutPlan(
            table=schema.name, layout="row", size_type=size_type,
            reason=f"no column-major layout: {exc}")
    return SqlLayoutPlan(
        table=schema.name, layout="columnar", size_type=size_type,
        reason="fixed-schema relation; one page run per column")
