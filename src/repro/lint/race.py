"""The concurrency lint: a static happens-before race detector
(``DECA401``, ``DECA402``, ``DECA404``, ``DECA405``).

The fourth pillar of the deca-lint suite (plan → closure → borrow →
**concurrency**), and the static half of the runtime sanitizer's vector
clocks (:mod:`repro.obs.sanitizer` is the dynamic half).  It parses the
engine's concurrency surface — the mp backend, the shared-memory
protocol, the worker runtime, the scheduler/shuffle wave machinery and
the arena/tier accounting planes — with :mod:`ast`, lowers every
function into the same mini-IR op stream the borrow checker uses
(reusing its module lowering, bounded path enumeration, finding sink and
module loop from :mod:`repro.lint.borrow`), and runs a *protocol model*
over each path:

* **acquire edges** — registry ``acquire`` refcount transitions,
  refcount-table stores inside or outside ``with self._lock`` scopes,
  arena pool reads and writes;
* **wave barriers** — ``connection.wait`` over the workers' pipes and
  sentinels (the mp backend's ``_gather`` rendezvous), worker ``join``,
  a result-queue ``get``, and the result bytes they guard;
* **segment lifecycle** — create/attach/unlink.

Each rule here is a path predicate over that op stream: e.g. an
``UNLINK`` followed by an ``ATTACH`` of the same segment name with no
refcount acquire between them is the classic TOCTOU on deterministic
names (DECA401); a pool read that crosses a blocking wait before
feeding a pool write is a lost update (DECA404).  Matching is textual
on the resource expression, exactly as in the borrow checker: precise
within one (inlined) function scope, no cross-resource aliasing.

DECA406–DECA410 had one or two engine subjects each and are checked
at runtime only, by the sanitizer's checkpoint and by tests that fail
on their bug seeded into those subjects (``docs/static_analysis.md``,
"Rule census").

Everything is deterministic: fixed module order, source-order ``ast``
walks, and :data:`repro.lint.borrow.PATH_LIMIT`-bounded enumeration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..analysis.ir import Method
from ..analysis.pointsto import (
    ContainerKind,
    ContainerRef,
    CreationSite,
    PointsToBinding,
    assign_ownership,
)
from ..analysis.udt import ClassType
from .borrow import (
    SANITIZER,
    FuncModel,
    _audit,
    _check_all,
    _emitter,
    _enumerate_paths,
    _lower,
    _Lowerer,
    _op,
    _text,
)
from .findings import Finding

#: The engine's concurrency surface, relative to the ``repro`` package
#: root.  Unlike the borrow checker this list *includes*
#: ``exec/worker.py``: workers run concurrently with the driver by
#: construction, which is exactly what the protocol model audits.
RACE_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.exec.mp", "exec/mp.py"),
    ("repro.exec.shm", "exec/shm.py"),
    ("repro.exec.worker", "exec/worker.py"),
    ("repro.spark.scheduler", "spark/scheduler.py"),
    ("repro.spark.shuffle", "spark/shuffle.py"),
    ("repro.spark.cache", "spark/cache.py"),
    ("repro.memory.unified", "memory/unified.py"),
    ("repro.memory.tier", "memory/tier.py"),
    ("repro.memory.page", "memory/page.py"),
)

# -- op vocabulary -----------------------------------------------------------
CREATE = "CREATE"              # segment created (writable handle)
ATTACH = "ATTACH"              # segment attached by name (read-only)
UNLINK = "UNLINK"              # segment unlinked
REFINC = "REFINC"              # registry refcount acquire
REFMUT_LOCKED = "REFMUT_LOCKED"      # direct refcount mutation, in lock
REFMUT_UNLOCKED = "REFMUT_UNLOCKED"  # direct refcount mutation, no lock
POOL_READ = "POOL_READ"        # arena pool level read
POOL_WRITE = "POOL_WRITE"      # arena pool transition
WAIT = "WAIT"                  # blocking wait (wait / join / queue get)
CONSUME = "CONSUME"            # task result bytes consumed

#: Receiver fragments marking an arena-ish pool owner.
_POOL_ATTRS = ("free_bytes", "execution_used", "storage_used",
               "shuffle_used")
_POOL_WRITERS = frozenset({
    "execution_acquire", "execution_release", "storage_acquire",
    "storage_grow", "storage_discard", "shuffle_acquire",
    "shuffle_release", "pool_write",
})


@dataclass
class RaceModel:
    """One lowered function plus the concurrency facts the rules need."""

    func: FuncModel
    class_uses_lock: bool = False


def _has_create_true(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "create" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


class _RaceLowerer(_Lowerer):
    """Lowers one function into the concurrency-protocol op stream.

    Reuses the borrow lowerer's statement walking (branches, loops,
    try/with, alias propagation) and replaces the op vocabulary: calls
    and assignments are recognized against the shared-memory protocol
    instead of the borrow lifecycle.
    """

    def __init__(self, module_methods: dict[str, Method]) -> None:
        super().__init__(module_methods)
        self._lock_depth = 0

    def _bind_segment(self, target: ast.expr | None, resource: str) -> None:
        self._bind(target, resource)
        if isinstance(target, ast.Name):
            self.seg_handles[target.id] = resource

    # -- call recognition ---------------------------------------------------
    def _call_ops(self, call: ast.Call,
                  target: ast.expr | None = None) -> list[object]:
        func = call.func
        line = call.lineno
        nargs = len(call.args)
        out: list[object] = []
        callee = (func.id if isinstance(func, ast.Name)
                  else getattr(func, "attr", None))
        if callee == "SharedPageSegment":
            resource = f"segment:{self._token(call)}"
            out.append(_op(CREATE if _has_create_true(call) else ATTACH,
                           resource, line))
            self._bind_segment(target, resource)
            return out
        if isinstance(func, ast.Name):
            name = func.id
            if name == "unlink_segment" and nargs >= 1:
                out.append(_op(UNLINK, f"segment:{self._token(call)}",
                               line))
            elif name == "pack_records_segment" and nargs >= 1:
                out.append(_op(CREATE, f"segment:{self._token(call)}",
                               line))
                self._bind_segment(target, f"segment:{self._token(call)}")
            elif name == "attach_page_group" and nargs >= 1:
                resource = f"segment:{self._token(call)}"
                out.append(_op(ATTACH, resource, line))
                self._bind_segment(target, resource)
            elif name in self.module_methods:
                return super()._call_ops(call, target)
            return out
        if not isinstance(func, ast.Attribute):
            return out
        recv = _text(func.value)
        meth = func.attr
        if SANITIZER in recv:
            return out
        if meth == "unlink" and nargs == 0:
            resource = f"segment:{recv}"
            if isinstance(func.value, ast.Name):
                resource = self.seg_handles.get(func.value.id, resource)
            out.append(_op(UNLINK, resource, line))
        elif meth == "acquire" and nargs >= 1:
            out.append(_op(REFINC, f"segment:{self._token(call)}", line))
        elif meth == "get" and "queue" in recv.lower():
            out.append(_op(WAIT, recv, line))
        elif meth in ("join", "sleep", "wait") \
                and not isinstance(func.value, ast.Constant) \
                and '"' not in recv and "'" not in recv:
            out.append(_op(WAIT, recv, line))
        elif meth == "loads" and nargs >= 1:
            arg_text = _text(call.args[0])
            if "result_blob" in arg_text or "blob" in arg_text:
                out.append(_op(CONSUME, arg_text, line))
        elif meth in _POOL_WRITERS:
            out.append(_op(POOL_WRITE, "pool", line))
        elif isinstance(func.value, ast.Name) and func.value.id == "self" \
                and meth in self.module_methods:
            return super()._call_ops(call, target)
        return out

    # -- statement lowering additions ---------------------------------------
    def _pool_reads(self, node: ast.AST) -> list[object]:
        out: list[object] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in _POOL_ATTRS:
                out.append(_op(POOL_READ, "pool", sub.lineno))
                break
        return out

    def _lower_stmt(self, stmt: ast.stmt) -> list[object]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locking = any("lock" in _text(item.context_expr).lower()
                          for item in stmt.items)
            ops: list[object] = []
            for item in stmt.items:
                ops.extend(self._calls_in(item.context_expr))
            if locking:
                self._lock_depth += 1
            body = list(self.lower(stmt.body))
            if locking:
                self._lock_depth -= 1
            return ops + body
        return super()._lower_stmt(stmt)  # type: ignore[return-value]

    def _lower_assign(self, stmt: ast.stmt) -> list[object]:
        ops: list[object] = list(
            super()._lower_assign(stmt))  # type: ignore[arg-type]
        value = getattr(stmt, "value", None)
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [getattr(stmt, "target", None)])
        for target in targets:
            text = _text(target) if isinstance(target, ast.Subscript) else ""
            # Only element stores count: ``self._refs = {}`` in a
            # constructor is initialization, not a refcount mutation.
            if "_refs" in text:
                kind = (REFMUT_LOCKED if self._lock_depth > 0
                        else REFMUT_UNLOCKED)
                ops.append(_op(kind, text, stmt.lineno))
        if value is not None:
            ops.extend(self._pool_reads(value))
        return ops


# -- module lowering ---------------------------------------------------------

def lower_race_module(source: str, module: str,
                      relpath: str) -> list[RaceModel]:
    """Parse and lower one module into per-function protocol models."""
    tree, models = _lower(source, module, relpath, _RaceLowerer)
    lock_classes = {node.name for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and "self._lock" in _text(node)}
    return [RaceModel(func=model, class_uses_lock=model.cls in lock_classes)
            for model in models]


# -- rule predicates ---------------------------------------------------------

def _ownership_why(resource: str, udt: str, owner: ContainerRef,
                   holder: str, consequence: str) -> str:
    """A why-chain step naming *resource*'s primary container under the
    §4.3 ownership rules while *holder* keeps a second handle to it."""
    binding = PointsToBinding(
        CreationSite(name=resource, udt=ClassType(udt), stage_id=0))
    binding.bind(owner)
    binding.bind(ContainerRef(ContainerKind.UDF_VARIABLES, holder, 0, 1))
    primary = assign_ownership(binding).primary
    return (f"ownership: primary container is {primary.name!r} "
            f"(kind {primary.kind.value}); {consequence}")


def check_race_function(race: RaceModel, target: str) -> list[Finding]:
    """Run every DECA40x predicate over one function's paths."""
    model = race.func
    findings, emit = _emitter(model, target)
    paths = _enumerate_paths(model.method.body)
    all_ops = [op for ops, _term in paths for op in ops]

    # DECA402: function-level — an unlocked refcount mutation inside a
    # class that takes the registry lock elsewhere.
    if race.class_uses_lock:
        for op in all_ops:
            if op.kind == REFMUT_UNLOCKED and op.depth == 0:
                emit("DECA402",
                     f"{model.qualname} mutates the refcount table "
                     f"({op.resource}) at line {op.line} outside the "
                     "registry lock; a concurrent mutator can interleave "
                     "the read-modify-write",
                     op.line, f"{model.qualname}:{op.line}", (
                         f"mutation: {op.resource} written at line "
                         f"{op.line} with no enclosing `with self._lock`",
                         "the owning class takes self._lock on its other "
                         "mutation paths",
                         "lost count: two unlocked decrements can both "
                         "read the same value and drop one reference"))
                break

    for ops, _terminated in paths:
        # DECA401: unlink followed by a same-name attach, no refcount
        # acquire between them (TOCTOU on the deterministic name).
        unlinked: dict[str, int] = {}
        for op in ops:
            if op.kind == UNLINK:
                unlinked[op.resource] = op.line
            elif op.kind == REFINC:
                unlinked.pop(op.resource, None)
            elif op.kind in (CREATE, ATTACH):
                unlink_line = unlinked.get(op.resource)
                if op.kind == ATTACH and unlink_line is not None:
                    emit("DECA401",
                         f"{op.resource!r} is attached at line {op.line} "
                         f"after its unlink at line {unlink_line} with "
                         "no refcount acquire between; a concurrent "
                         "attacher races the name recycling",
                         op.line, f"{model.qualname}:{op.resource}", (
                             f"unlink: {op.resource} discarded at line "
                             f"{unlink_line}",
                             "no registry.acquire() re-establishes the "
                             "reference on this path",
                             f"attach: the deterministic name is re-"
                             f"mapped at line {op.line}",
                             _ownership_why(
                                 op.resource, "SharedPageSegment",
                                 ContainerRef(ContainerKind.SHUFFLE_BUFFER,
                                              op.resource, 0, 0),
                                 "concurrent-attacher",
                                 "the concurrent attacher maps the "
                                 "recycled name with no happens-before "
                                 "edge to the unlink")))
                unlinked.pop(op.resource, None)

        # DECA404: pool read → blocking wait → pool write (lost update).
        read_line: int | None = None
        waited: int | None = None
        for op in ops:
            if op.kind == POOL_READ:
                read_line = op.line
                waited = None
            elif op.kind == WAIT and read_line is not None:
                waited = op.line
            elif op.kind == POOL_WRITE and waited is not None:
                emit("DECA404",
                     f"{model.qualname} reads the pool level at line "
                     f"{read_line}, blocks at line {waited}, then writes "
                     f"the pool at line {op.line}; concurrent "
                     "borrow/evict between read and write is lost",
                     op.line, model.qualname, (
                         f"read: pool level sampled at line {read_line}",
                         f"wait: the path blocks at line {waited}",
                         f"write: stale level feeds the pool transition "
                         f"at line {op.line}"))
                break

        # DECA405: a task result consumed before any wave barrier.
        has_barrier = any(op.kind == WAIT for op in ops)
        if has_barrier:
            for op in ops:
                if op.kind == WAIT:
                    break
                if op.kind == CONSUME:
                    emit("DECA405",
                         f"{model.qualname} consumes {op.resource!r} at "
                         f"line {op.line} before the wave barrier; the "
                         "producing worker may still be writing the "
                         "bytes",
                         op.line, model.qualname, (
                             f"consume: result bytes read at line "
                             f"{op.line}",
                             "no queue get / worker join precedes the "
                             "read on this path",
                             "the wave barrier is the only "
                             "happens-before edge to the producer"))
                    break

    return findings


# -- entry points ------------------------------------------------------------

def analyze_race_source(source: str, module: str, relpath: str,
                        target: str = "race") -> list[Finding]:
    """Race-check one module's source text."""
    return _check_all(lower_race_module(source, module, relpath),
                      check_race_function, target)


def run_race_rules(modules: tuple[tuple[str, str], ...] = RACE_MODULES,
                   target: str = "race",
                   ) -> tuple[tuple[Finding, ...], dict[str, object]]:
    """Race-check *modules*; returns (findings, summary)."""
    findings, summary, _lowered = _audit(modules, lower_race_module,
                                         check_race_function, target,
                                         "race_findings")
    return findings, summary
