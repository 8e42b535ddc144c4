"""The concurrency lint: a static happens-before race detector
(``DECA401``–``DECA410``).

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
  a result-queue ``get``;
* **segment lifecycle** — create/attach/unlink, with created handles
  writable and attached handles read-only;
* **death/sweep evidence** — ``is_alive``/``exitcode``/``terminate``
  checks dominating an orphan-segment sweep.

Each DECA40x rule is a path predicate over that op stream: e.g. an
``UNLINK`` followed by an ``ATTACH`` of the same segment name with no
refcount acquire between them is the classic TOCTOU on deterministic
names (DECA401); a pool read that crosses a blocking wait before
feeding a pool write is a lost update (DECA404).  Matching is textual
on the resource expression, exactly as in the borrow checker: precise
within one (inlined) function scope, no cross-resource aliasing.

Everything is deterministic: fixed module order, source-order ``ast``
walks, and :data:`repro.lint.borrow.PATH_LIMIT`-bounded enumeration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..analysis.ir import Call, Method
from ..analysis.pointsto import ContainerKind, ContainerRef
from .borrow import (
    SANITIZER,
    FuncModel,
    PathOp,
    _audit,
    _check_all,
    _emitter,
    _enumerate_paths,
    _lower,
    _Lowerer,
    _op,
    _ownership_why,
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
    # Every task takes and drops its arena slot here (DECA410).
    ("repro.spark.executor", "spark/executor.py"),
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
SWEEP = "SWEEP"                # orphan-segment sweep by prefix
DEATH = "DEATH"                # worker-death evidence (terminate/kill)
SELECT = "SELECT"              # spill victim selection
SWAP = "SWAP"                  # spill/swap of a selected victim
WRITE_RO = "WRITE_RO"          # write through an attach-derived view
RELAY_RAW = "RELAY_RAW"        # tracer relay of a pre-built event
RELAY_ANCHORED = "RELAY_ANCHORED"    # relay re-anchored via replace(ts_ms=)
GRANT = "GRANT"                # task slot granted
GRANT_REL = "GRANT_REL"        # task slot released
GUARD = "GUARD"                # branch condition text (from the lowerer)

#: Guard-text fragments that count as worker-death evidence for DECA406.
_DEATH_WORDS = ("is_alive", "exitcode", "lost", "dead", "crash")

#: Guard-text fragments that count as an in-flight guard for DECA407.
_INFLIGHT_WORDS = ("inflight", "in_flight")

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


def _base_name(node: ast.expr) -> str | None:
    """The root ``Name`` under a Subscript/Attribute chain, if any."""
    base: ast.expr = node
    while isinstance(base, (ast.Subscript, ast.Attribute)):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    return None


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

    def __init__(self, model: FuncModel,
                 module_methods: dict[str, Method]) -> None:
        super().__init__(model, module_methods)
        # Handles bound by a CREATE (writable) vs an ATTACH (read-only).
        self.writable: set[str] = set()
        self.ro_handles: set[str] = set()
        self._lock_depth = 0

    # -- segment handle classification --------------------------------------
    def _bind_segment(self, target: ast.expr | None, resource: str,
                      writable: bool) -> None:
        self._bind(target, resource)
        if isinstance(target, ast.Name):
            self.seg_handles[target.id] = resource
            (self.writable if writable else self.ro_handles).add(target.id)

    def _propagate_writability(self, target: ast.expr | None,
                               source: str) -> None:
        if not isinstance(target, ast.Name):
            return
        if source in self.writable:
            self.writable.add(target.id)
        elif source in self.ro_handles:
            self.ro_handles.add(target.id)

    # -- call recognition ---------------------------------------------------
    def _call_ops(self, call: ast.Call,
                  target: ast.expr | None = None) -> list[object]:
        func = call.func
        line = call.lineno
        nargs = len(call.args)
        out: list[object] = []
        callee = (func.id if isinstance(func, ast.Name)
                  else getattr(func, "attr", None))
        if callee in ("SharedPageSegment", "SharedMemory"):
            resource = f"segment:{self._token(call)}"
            writable = _has_create_true(call)
            out.append(_op(CREATE if writable else ATTACH, resource, line))
            self._bind_segment(target, resource, writable)
            return out
        if isinstance(func, ast.Name):
            name = func.id
            if name == "unlink_segment" and nargs >= 1:
                out.append(_op(UNLINK, f"segment:{self._token(call)}",
                               line))
            elif name == "pack_records_segment" and nargs >= 1:
                out.append(_op(CREATE, f"segment:{self._token(call)}",
                               line))
                self._bind_segment(target,
                                   f"segment:{self._token(call)}",
                                   writable=True)
            elif name == "attach_page_group" and nargs >= 1:
                resource = f"segment:{self._token(call)}"
                out.append(_op(ATTACH, resource, line))
                self._bind_segment(target, resource, writable=False)
            elif name == "sweep_segments":
                out.append(_op(SWEEP, self._token(call), line))
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
        elif meth in ("view", "allocate") \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.seg_handles:
            self._bind(target, self.seg_handles[func.value.id])
            self._propagate_writability(target, func.value.id)
        elif meth == "sweep_segments":
            out.append(_op(SWEEP, self._token(call), line))
        elif meth in ("terminate", "kill"):
            out.append(_op(DEATH, recv, line))
        elif meth == "is_alive" and nargs == 0:
            out.append(_op(DEATH, recv, line))
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
        elif "victim" in meth:
            resource = _text(target) if target is not None else meth
            out.append(_op(SELECT, resource, line))
            self._bind(target, f"victim:{resource}")
        elif meth in ("swap_out", "spill") and nargs >= 1:
            out.append(_op(SWAP, _text(call.args[0]), line))
            # A self-call swap still inlines: the in-flight guard lives
            # inside the callee and must stay visible on the path.
            if isinstance(func.value, ast.Name) and func.value.id == "self" \
                    and meth in self.module_methods:
                out.append(Call(target=None,
                                method=self.module_methods[meth]))
        elif meth == "pack_into" and nargs >= 1:
            base = _base_name(call.args[0])
            if base is not None and base in self.ro_handles \
                    and base not in self.writable:
                out.append(_op(WRITE_RO,
                               self.seg_handles.get(base, f"view:{base}"),
                               line))
        elif meth == "emit" and "tracer" in recv and nargs == 1:
            arg = call.args[0]
            if isinstance(arg, ast.Name):
                out.append(_op(RELAY_RAW, arg.id, line))
            elif isinstance(arg, ast.Call):
                inner = arg.func
                anchored = (isinstance(inner, ast.Attribute)
                            and inner.attr == "replace"
                            and any(kw.arg == "ts_ms"
                                    for kw in arg.keywords))
                if anchored:
                    out.append(_op(RELAY_ANCHORED, _text(arg), line))
        elif meth in ("task_started", "grant"):
            token = (self._token(call) if nargs or call.keywords
                     else (_text(target) if target is not None else "task"))
            out.append(_op(GRANT, f"task:{token}", line))
        elif meth in ("task_finished", "release_grant") and nargs >= 1:
            out.append(_op(GRANT_REL, f"task:{self._token(call)}", line))
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
            if target is None:
                continue
            if isinstance(target, ast.Subscript):
                text = _text(target)
                # Only element stores count: ``self._refs = {}`` in a
                # constructor is initialization, not a refcount mutation.
                if "_refs" in text:
                    kind = (REFMUT_LOCKED if self._lock_depth > 0
                            else REFMUT_UNLOCKED)
                    ops.append(_op(kind, text, stmt.lineno))
                base = _base_name(target)
                if base is not None \
                        and base in self.ro_handles \
                        and base not in self.writable:
                    ops.append(_op(
                        WRITE_RO,
                        self.seg_handles.get(base, f"view:{base}"),
                        stmt.lineno))
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

def _guard_matches(op: PathOp, words: tuple[str, ...]) -> bool:
    return op.kind == GUARD and any(w in op.resource for w in words)


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

    # DECA409: function-level — any relay of a pre-built worker event
    # without re-anchoring its timestamp onto the driver timeline.
    for op in all_ops:
        if op.kind == RELAY_RAW and op.depth == 0:
            emit("DECA409",
                 f"{model.qualname} relays worker event {op.resource!r} "
                 f"at line {op.line} without re-anchoring ts_ms; the "
                 "relayed event sorts before its stage start",
                 op.line, model.qualname, (
                     f"relay: tracer.emit({op.resource}) at line "
                     f"{op.line} forwards the worker-local timestamp",
                     "protocol: relays must rebase via "
                     "dataclasses.replace(event, ts_ms=stage_start + "
                     "event.ts_ms)"))
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
                                 op.resource, "SharedMemory",
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

        # DECA406: an orphan sweep with no death evidence before it.
        dead = False
        for op in ops:
            if op.kind == DEATH or _guard_matches(op, _DEATH_WORDS):
                dead = True
            elif op.kind == SWEEP and not dead:
                emit("DECA406",
                     f"{model.qualname} sweeps segments "
                     f"(prefix {op.resource}) at line {op.line} with no "
                     "worker-death confirmation on this path; a live "
                     "worker's in-flight segments are unlinked under it",
                     op.line, f"{model.qualname}:{op.line}", (
                         f"sweep: prefix unlink at line {op.line}",
                         "no is_alive/exitcode/terminate evidence "
                         "precedes it on this path"))
                break

        # DECA407: a victim selected and swapped with no in-flight
        # guard anywhere on the path.
        selected: dict[str, int] = {}
        inflight_guarded = any(
            _guard_matches(op, _INFLIGHT_WORDS) for op in ops)
        for op in ops:
            if op.kind == SELECT:
                selected[op.resource] = op.line
            elif op.kind == SWAP and not inflight_guarded:
                sel_line = selected.get(op.resource)
                if sel_line is not None:
                    emit("DECA407",
                         f"{model.qualname} swaps victim "
                         f"{op.resource!r} (selected at line {sel_line}) "
                         f"at line {op.line} with no in-flight guard; a "
                         "re-entrant eviction can re-select the block "
                         "mid-swap",
                         op.line, f"{model.qualname}:{op.resource}", (
                             f"select: victim chosen at line {sel_line}",
                             "no _inflight membership check on this "
                             "path",
                             f"swap: pages drained at line {op.line}; a "
                             "pressure re-entry drains them again"))
                    break

        # DECA408: a write through an attach-derived (read-only) view.
        for op in ops:
            if op.kind == WRITE_RO and op.depth == 0:
                emit("DECA408",
                     f"{model.qualname} writes through read-only view of "
                     f"{op.resource!r} at line {op.line}; the write "
                     "races every other attacher of the same bytes",
                     op.line, f"{model.qualname}:{op.resource}", (
                         f"attach: {op.resource} mapped without "
                         "create=True (consumer side)",
                         f"write: bytes stored through the view at line "
                         f"{op.line}",
                         "the shm protocol makes attached segments "
                         "read-only; only the creator writes"))
                break

        # DECA410: the same task token granted twice with no release.
        active: dict[str, int] = {}
        for op in ops:
            if op.kind == GRANT:
                prev = active.get(op.resource)
                if prev is not None:
                    emit("DECA410",
                         f"{model.qualname} grants {op.resource!r} twice "
                         f"(lines {prev} and {op.line}) with no release "
                         "between; both holders charge the same "
                         "fair-share slot",
                         op.line, f"{model.qualname}:{op.resource}", (
                             f"grant: slot taken at line {prev}",
                             "no task_finished/release on this path",
                             f"grant: the same token is granted again "
                             f"at line {op.line}"))
                    break
                active[op.resource] = op.line
            elif op.kind == GRANT_REL:
                active.pop(op.resource, None)

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
