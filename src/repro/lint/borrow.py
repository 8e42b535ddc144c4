"""The zero-copy borrow checker (``DECA301``–``DECA308``).

The static half of the provenance sanitizer (the dynamic half is
:mod:`repro.memory.provenance`).  It parses the engine's zero-copy
modules with :mod:`ast`, lowers every function into the analysis mini-IR
(:mod:`repro.analysis.ir`) — each recognized lifecycle operation becomes
a ``Call`` to a synthetic ``op:*`` leaf method, branches become ``If``,
loops become ``Loop``, intra-module calls stay as calls so the scope can
be walked with :class:`repro.analysis.callgraph.CallGraph` — and then
enumerates bounded control-flow paths per function, running a borrow
state machine over each path.

The lifecycle model mirrors the runtime ledger's:

* **exports** — ``tier.views(name)`` / ``tier.swap_in(name)`` /
  ``segment.view(..)`` / ``segment.allocate(..)`` hand out a
  ``memoryview`` borrowing the named backing resource;
* **releases** — ``view.release()`` / ``obj._release()`` / ``del view``
  end a borrow; ``registry.release(name)`` / ``unlink_segment(name)``
  and ``tier.drop(name)`` end the *backing*;
* **adoption** — ``group.adopt_page(view)`` transfers ownership to the
  page group; any second handle kept past that point escapes the
  refcount protocol (§4.3);
* **remap** — a grow/remap function must retire the old mapping (the
  ``try: close() except BufferError: retire`` protocol) rather than
  ``resize``/close it in place.

Matching is textual on the resource expression (the extent/segment name
argument), which is exactly as precise as one function's view of its own
locals — the point-of-use rules below only ever compare tokens produced
inside a single (inlined) function scope, so the checker is path-
sensitive but has no false cross-resource aliasing.

Everything here is deterministic: modules are visited in a fixed order,
``ast`` iteration is source order, and path enumeration is bounded by
:data:`PATH_LIMIT`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, TypeVar

from ..analysis.callgraph import CallGraph
from ..analysis.ir import Call, If, Loop, Method, Return, Stmt
from ..analysis.pointsto import (
    ContainerKind,
    ContainerRef,
    CreationSite,
    PointsToBinding,
    assign_ownership,
)
from ..analysis.udt import ClassType
from .findings import Finding, make_finding, sort_findings

#: Bound on enumerated control-flow paths per function.
PATH_LIMIT = 256
#: Intra-module call inlining depth during path enumeration.
INLINE_DEPTH = 3

#: The engine modules whose zero-copy plumbing the checker audits,
#: relative to the ``repro`` package root.  ``exec/worker.py`` is
#: excluded: it runs entirely inside forked children whose segments are
#: swept by name prefix, not borrow-tracked.
ENGINE_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.memory.tier", "memory/tier.py"),
    ("repro.memory.page", "memory/page.py"),
    ("repro.spark.cache", "spark/cache.py"),
    ("repro.sql.columnar", "sql/columnar.py"),
    ("repro.exec.shm", "exec/shm.py"),
    ("repro.exec.mp", "exec/mp.py"),
)

# -- op vocabulary -----------------------------------------------------------
EXPORT = "EXPORT"
ALLOC = "ALLOC"
RELEASE = "RELEASE"
SEGRELEASE = "SEGRELEASE"
FREE = "FREE"
RECLAIM = "RECLAIM"
ADOPT = "ADOPT"
ESCAPE = "ESCAPE"
UNLINK = "UNLINK"
DRAIN = "DRAIN"
RELEASE_COPY = "RELEASE_COPY"
REMAP_SAFE = "REMAP_SAFE"
REMAP_UNSAFE = "REMAP_UNSAFE"
DETACH = "DETACH"
GUARD = "GUARD"
RETURN = "RETURN"
RAISE = "RAISE"

#: Ops that count as "this path does clean up" for DECA306.
_RELEASING = frozenset({RELEASE, SEGRELEASE, FREE, RECLAIM, UNLINK,
                        RELEASE_COPY, DETACH})

#: Guard texts that mark an early return as an idempotence/absence check,
#: not a leak (``if self._closed: return`` and friends).
_IDEMPOTENT_WORDS = ("closed", "reclaimed", "freed", "is none", "released",
                     "not self", "dropped")

#: Function names treated as teardown for DECA306.
_TEARDOWN_NAMES = frozenset({"close", "finish", "shutdown", "release_all",
                             "teardown"})

_OP_METHODS: dict[str, Method] = {}


def _op_method(kind: str) -> Method:
    """The shared synthetic leaf method representing one op kind."""
    method = _OP_METHODS.get(kind)
    if method is None:
        method = Method(name=f"op:{kind}")
        _OP_METHODS[kind] = method
    return method


def _op(kind: str, resource: str, line: int) -> Call:
    """Encode one lifecycle op as an IR call to its leaf method."""
    return Call(target=str(line), method=_op_method(kind),
                receiver=resource)


@dataclass(frozen=True)
class PathOp:
    """One op occurrence along an enumerated path."""

    kind: str
    resource: str
    line: int
    depth: int          # 0 = in the function itself, >0 = inlined callee


@dataclass
class FuncModel:
    """One lowered function: its IR body plus rule-relevant metadata."""

    module: str
    relpath: str
    qualname: str
    cls: str | None
    name: str
    lineno: int
    end_lineno: int
    method: Method
    growlike: bool = False
    is_teardown: bool = False
    escapes: list[tuple[str, int]] = dc_field(default_factory=list)


def _text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on py>=3.9
        return "<expr>"


def _is_teardown_name(name: str) -> bool:
    return (name in _TEARDOWN_NAMES or name.endswith("_close")
            or name.endswith("_finish"))


class _Lowerer:
    """Lowers one Python function body into the mini-IR op stream."""

    def __init__(self, model: FuncModel,
                 module_methods: dict[str, Method]) -> None:
        self.model = model
        self.module_methods = module_methods
        # var name -> resource token ("extent:<expr>" / "segment:<expr>")
        self.aliases: dict[str, str] = {}
        # var name -> segment resource, for SharedPageSegment handles
        self.seg_handles: dict[str, str] = {}
        # vars whose views were adopted into a page group
        self.adopted: set[str] = set()
        self._buffer_guard_depth = 0

    # -- helpers ------------------------------------------------------------
    def _token(self, call: ast.Call) -> str:
        if call.args:
            return _text(call.args[0])
        for kw in call.keywords:
            if kw.arg == "name":
                return _text(kw.value)
        return _text(call.func)

    def _bind(self, target: ast.expr | None, resource: str) -> None:
        if isinstance(target, ast.Name):
            self.aliases[target.id] = resource

    def _propagate(self, target: ast.expr, value: ast.expr) -> None:
        """Alias propagation through ``x = y`` and ``x = y[...]``."""
        base = value
        while isinstance(base, ast.Subscript):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        name = base.id
        if isinstance(target, ast.Name):
            if name in self.aliases:
                self.aliases[target.id] = self.aliases[name]
            if name in self.adopted:
                self.adopted.add(target.id)
            if name in self.seg_handles:
                self.seg_handles[target.id] = self.seg_handles[name]
        elif isinstance(target, ast.Attribute) and name in self.adopted:
            # self.attr = adopted-view — the handle escapes the adoption.
            self.model.escapes.append(
                (self.aliases.get(name, f"extent:{name}"), target.lineno))

    def _escape_if_adopted(self, node: ast.expr | None, line: int) -> bool:
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.adopted:
            self.model.escapes.append(
                (self.aliases.get(base.id, f"extent:{base.id}"), line))
            return True
        return False

    # -- call recognition ---------------------------------------------------
    def _call_ops(self, call: ast.Call,
                  target: ast.expr | None = None) -> list[Stmt]:
        func = call.func
        line = call.lineno
        nargs = len(call.args)
        out: list[Stmt] = []
        if isinstance(func, ast.Name):
            if func.id == "unlink_segment" and nargs >= 1:
                out.append(_op(UNLINK, f"segment:{self._token(call)}",
                               line))
            elif func.id in ("SharedPageSegment", "SharedMemory"):
                self._bind(target, f"segment:{self._token(call)}")
                if isinstance(target, ast.Name):
                    self.seg_handles[target.id] = \
                        f"segment:{self._token(call)}"
            elif func.id in self.module_methods:
                out.append(Call(target=None,
                                method=self.module_methods[func.id]))
            return out
        if not isinstance(func, ast.Attribute):
            return out
        recv = _text(func.value)
        meth = func.attr
        if "ledger" in recv:
            return out  # sanitizer instrumentation is not a lifecycle op
        if meth in ("views", "swap_in"):
            resource = f"extent:{self._token(call)}"
            out.append(_op(EXPORT, resource, line))
            self._bind(target, resource)
        elif meth == "swap_out" and nargs >= 1:
            out.append(_op(ALLOC, f"extent:{self._token(call)}", line))
        elif meth == "view" and isinstance(func.value, ast.Name) \
                and func.value.id in self.seg_handles:
            resource = self.seg_handles[func.value.id]
            out.append(_op(EXPORT, resource, line))
            self._bind(target, resource)
        elif meth == "allocate" and isinstance(func.value, ast.Name) \
                and func.value.id in self.seg_handles:
            resource = self.seg_handles[func.value.id]
            out.append(_op(EXPORT, resource, line))
            self._bind(target, resource)
        elif meth == "release":
            if nargs == 0:
                resource = self.aliases.get(recv, f"?:{recv}")
                if isinstance(func.value, ast.Name):
                    resource = self.aliases.get(func.value.id, resource)
                out.append(_op(RELEASE, resource, line))
            else:
                out.append(_op(SEGRELEASE,
                               f"segment:{self._token(call)}", line))
        elif meth == "_release" and nargs == 0:
            out.append(_op(RELEASE, self.aliases.get(recv, f"?:{recv}"),
                           line))
        elif meth == "release_all":
            out.append(_op(SEGRELEASE, "segment:*", line))
        elif meth == "drop" and nargs >= 1:
            out.append(_op(FREE, f"extent:{self._token(call)}", line))
        elif meth == "reclaim" and nargs == 0:
            out.append(_op(RECLAIM, recv, line))
        elif meth == "adopt_page" and nargs >= 1:
            arg = call.args[0]
            resource = "extent:?"
            if isinstance(arg, ast.Name):
                resource = self.aliases.get(arg.id, resource)
                self.adopted.add(arg.id)
                # every alias of the same resource is now group-owned
                for var, res in self.aliases.items():
                    if res == resource:
                        self.adopted.add(var)
            out.append(_op(ADOPT, resource, line))
        elif meth == "unlink" and nargs == 0:
            resource = f"segment:{recv}"
            if isinstance(func.value, ast.Name):
                resource = self.seg_handles.get(func.value.id, resource)
            out.append(_op(UNLINK, resource, line))
        elif meth == "drain" and nargs == 0:
            out.append(_op(DRAIN, recv, line))
        elif meth in ("shrink", "free_group"):
            out.append(_op(RELEASE_COPY, recv, line))
        elif meth == "register" and nargs >= 1:
            out.append(_op(ALLOC, f"segment:{self._token(call)}", line))
        elif meth == "resize":
            kind = (REMAP_SAFE if self._buffer_guard_depth > 0
                    else REMAP_UNSAFE)
            out.append(_op(kind, recv, line))
        elif meth == "close" and nargs == 0:
            if self.model.growlike:
                kind = (REMAP_SAFE if self._buffer_guard_depth > 0
                        else REMAP_UNSAFE)
                out.append(_op(kind, recv, line))
            else:
                out.append(_op(DETACH, recv, line))
        elif isinstance(func.value, ast.Name) and func.value.id == "self" \
                and meth in self.module_methods:
            out.append(Call(target=None, method=self.module_methods[meth]))
        elif meth == "append" and nargs == 1:
            self._escape_if_adopted(call.args[0], line)
            if self.model.escapes and self.model.escapes[-1][1] == line:
                out.append(_op(ESCAPE, self.model.escapes[-1][0], line))
        return out

    def _calls_in(self, node: ast.AST) -> list[Stmt]:
        """Recognize every call inside *node*, in source order."""
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        calls.sort(key=lambda n: (n.lineno, n.col_offset))
        out: list[Stmt] = []
        for call in calls:
            out.extend(self._call_ops(call))
        return out

    # -- statement lowering -------------------------------------------------
    def lower(self, body: list[ast.stmt]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for stmt in body:
            out.extend(self._lower_stmt(stmt))
        return tuple(out)

    def _lower_stmt(self, stmt: ast.stmt) -> list[Stmt]:
        if isinstance(stmt, ast.Expr):
            ops = []
            if isinstance(stmt.value, ast.Yield):
                if self._escape_if_adopted(stmt.value.value, stmt.lineno):
                    ops.append(_op(ESCAPE, self.model.escapes[-1][0],
                                   stmt.lineno))
            if isinstance(stmt.value, ast.Call):
                ops.extend(self._call_ops(stmt.value))
                for arg in stmt.value.args:
                    ops.extend(self._calls_in(arg))
            else:
                ops.extend(self._calls_in(stmt.value))
            return ops
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._lower_assign(stmt)
        if isinstance(stmt, ast.Return):
            ops = []
            if stmt.value is not None:
                if self._escape_if_adopted(stmt.value, stmt.lineno):
                    ops.append(_op(ESCAPE, self.model.escapes[-1][0],
                                   stmt.lineno))
                ops.extend(self._calls_in(stmt.value))
            ops.append(_op(RETURN, "", stmt.lineno))
            ops.append(Return())
            return ops
        if isinstance(stmt, ast.Raise):
            return [_op(RAISE, "", stmt.lineno), Return()]
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._lower_for(stmt)
        if isinstance(stmt, ast.While):
            ops = [_op(GUARD, _text(stmt.test).lower(), stmt.lineno)]
            ops.extend(self._calls_in(stmt.test))
            body = self.lower(stmt.body)
            return ops + [Loop(body=body)]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            ops: list[Stmt] = []
            for item in stmt.items:
                ops.extend(self._calls_in(item.context_expr))
            return ops + list(self.lower(stmt.body))
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt)
        if isinstance(stmt, ast.Delete):
            ops = []
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id in self.aliases:
                    ops.append(_op(RELEASE, self.aliases[tgt.id],
                                   stmt.lineno))
            return ops
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []  # nested scopes are opaque (lambdas likewise)
        if isinstance(stmt, (ast.Assert,)):
            return self._calls_in(stmt.test)
        return self._calls_in(stmt)

    def _lower_assign(self, stmt: ast.stmt) -> list[Stmt]:
        value = getattr(stmt, "value", None)
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        ops: list[Stmt] = []
        if value is None:
            return ops
        target0 = targets[0] if targets else None
        if isinstance(value, ast.Call):
            ops.extend(self._call_ops(value, target=target0))
            for arg in value.args:
                ops.extend(self._calls_in(arg))
            for kw in value.keywords:
                ops.extend(self._calls_in(kw.value))
        else:
            ops.extend(self._calls_in(value))
            for target in targets:
                self._propagate(target, value)
                if (isinstance(target, ast.Attribute)
                        and self.model.escapes
                        and self.model.escapes[-1][1] == stmt.lineno):
                    ops.append(_op(ESCAPE, self.model.escapes[-1][0],
                                   stmt.lineno))
        return ops

    def _lower_if(self, stmt: ast.If) -> list[Stmt]:
        ops: list[Stmt] = [_op(GUARD, _text(stmt.test).lower(), stmt.lineno)]
        ops.extend(self._calls_in(stmt.test))
        then_body = self.lower(stmt.body)
        else_body = self.lower(stmt.orelse)
        ops.append(If(then_body=then_body, else_body=else_body))
        return ops

    def _lower_for(self, stmt: ast.For | ast.AsyncFor) -> list[Stmt]:
        ops: list[Stmt] = []
        # ``for v in tier.swap_in(..)`` / ``for v in views``: the loop
        # var aliases the iterated export.
        if isinstance(stmt.iter, ast.Call):
            ops.extend(self._call_ops(stmt.iter, target=stmt.target))
        else:
            ops.extend(self._calls_in(stmt.iter))
            base = stmt.iter
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name) and isinstance(stmt.target,
                                                         ast.Name):
                if base.id in self.aliases:
                    self.aliases[stmt.target.id] = self.aliases[base.id]
                if base.id in self.adopted:
                    self.adopted.add(stmt.target.id)
        body = self.lower(stmt.body)
        ops.append(Loop(body=body))
        ops.extend(self.lower(stmt.orelse))
        return ops

    def _lower_try(self, stmt: ast.Try) -> list[Stmt]:
        guards_buffer = any(
            handler.type is not None and "BufferError" in _text(handler.type)
            for handler in stmt.handlers)
        if guards_buffer:
            self._buffer_guard_depth += 1
        body = list(self.lower(stmt.body))
        if guards_buffer:
            self._buffer_guard_depth -= 1
        out: list[Stmt] = body
        for handler in stmt.handlers:
            handler_body = self.lower(handler.body)
            if handler_body:
                out.append(If(then_body=handler_body))
        out.extend(self.lower(stmt.orelse))
        out.extend(self.lower(stmt.finalbody))
        return out


# -- module lowering ---------------------------------------------------------

def _collect_functions(tree: ast.Module, module: str,
                       relpath: str) -> list[FuncModel]:
    """Walk a module's top level and class bodies, one model per def."""
    models: list[FuncModel] = []

    def add(node: ast.FunctionDef | ast.AsyncFunctionDef,
            cls: str | None) -> None:
        qualname = f"{cls}.{node.name}" if cls else node.name
        name_l = node.name.lower()
        models.append(FuncModel(
            module=module, relpath=relpath, qualname=qualname, cls=cls,
            name=node.name, lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
            method=Method(name=f"{module}.{qualname}"),
            growlike=("grow" in name_l or "remap" in name_l),
            is_teardown=_is_teardown_name(node.name)))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, None)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(sub, node.name)
    return models


def _lower(source: str, module: str, relpath: str,
           lowerer: type[_Lowerer]) -> tuple[ast.Module, list[FuncModel]]:
    """Parse one module and lower every function with *lowerer*."""
    tree = ast.parse(source)
    models = _collect_functions(tree, module, relpath)
    # Two-pass: register every function's Method first so intra-module
    # calls can reference callees lowered later; then fill the bodies.
    # Last binding wins on name collisions across classes — the textual
    # resource tokens keep any imprecision harmless.
    by_name = {model.name: model.method for model in models}
    node_of: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node_of.setdefault(node.name, node)
    for model in models:
        model.method.body = lowerer(model, by_name).lower(
            node_of[model.name].body)
    return tree, models


def lower_module(source: str, module: str,
                 relpath: str) -> list[FuncModel]:
    """Parse and lower one module into per-function IR models."""
    return _lower(source, module, relpath, _Lowerer)[1]


def build_scope(models: list[FuncModel]) -> CallGraph:
    """The engine scope: a synthetic root calling every lowered function."""
    root = Method(name="engine:root",
                  body=tuple(Call(target=None, method=m.method)
                             for m in models))
    return CallGraph.build(root)


# -- path enumeration --------------------------------------------------------

def _enumerate_paths(body: tuple[Stmt, ...], depth: int = 0,
                     stack: frozenset[int] = frozenset(),
                     ) -> list[tuple[tuple[PathOp, ...], bool]]:
    """All bounded op paths through *body* as ``(ops, terminated)``."""
    alive: list[list[PathOp]] = [[]]
    done: list[list[PathOp]] = []
    for stmt in body:
        if not alive:
            break
        if isinstance(stmt, Call):
            method = stmt.method
            if method.name.startswith("op:"):
                op = PathOp(method.name[3:], stmt.receiver or "",
                            int(stmt.target or "0"), depth)
                for path in alive:
                    path.append(op)
            elif (depth < INLINE_DEPTH and id(method) not in stack
                    and method.body):
                sub = _enumerate_paths(method.body, depth + 1,
                                       stack | {id(method)})
                # A callee return resumes the caller: termination flags
                # do not propagate upward.
                alive = [path + list(ops) for path in alive
                         for ops, _term in sub][:PATH_LIMIT]
        elif isinstance(stmt, If):
            arms = (_enumerate_paths(stmt.then_body, depth, stack)
                    + _enumerate_paths(stmt.else_body, depth, stack))
            next_alive: list[list[PathOp]] = []
            for path in alive:
                for ops, term in arms:
                    merged = path + list(ops)
                    (done if term else next_alive).append(merged)
            alive = next_alive[:PATH_LIMIT]
            del done[PATH_LIMIT:]
        elif isinstance(stmt, Loop):
            sub = _enumerate_paths(stmt.body, depth, stack)
            next_alive = []
            for path in alive:
                next_alive.append(path)     # zero iterations
                for ops, term in sub:       # one widened iteration
                    merged = path + list(ops)
                    (done if term else next_alive).append(merged)
            alive = next_alive[:PATH_LIMIT]
            del done[PATH_LIMIT:]
        elif isinstance(stmt, Return):
            done.extend(alive)
            alive = []
    return ([(tuple(p), True) for p in done[:PATH_LIMIT]]
            + [(tuple(p), False) for p in alive[:PATH_LIMIT]])


# -- rule predicates ---------------------------------------------------------

Emit = Callable[[str, str, int, str, tuple[str, ...]], None]


def _emitter(model: FuncModel,
             target: str) -> tuple[list[Finding], Emit]:
    """One function's findings and ``emit(rule, message, line, dedup,
    why)``, which drops a second finding with the same rule and dedup key.
    """
    findings: list[Finding] = []
    seen: set[tuple[str, str]] = set()

    def emit(rule: str, message: str, line: int, dedup: str,
             why: tuple[str, ...]) -> None:
        if (rule, dedup) in seen:
            return
        seen.add((rule, dedup))
        findings.append(make_finding(
            rule, target, f"{model.module}.{model.qualname}", message,
            location=f"src/repro/{model.relpath}:{line}", why=why))

    return findings, emit


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


def check_function(model: FuncModel, target: str) -> list[Finding]:
    """Run every DECA30x predicate over one function's paths."""
    findings, emit = _emitter(model, target)
    paths = _enumerate_paths(model.method.body)
    all_ops = [op for ops, _term in paths for op in ops]

    # DECA305: function-level — any unretired remap in a grow/remap path.
    if model.growlike:
        for op in all_ops:
            if op.kind == REMAP_UNSAFE and op.depth == 0:
                emit("DECA305",
                     f"{model.qualname} replaces the backing mapping in "
                     "place (no retire-on-BufferError protocol); every "
                     "exported view dangles",
                     op.line, model.qualname, (
                         f"remap: in-place mapping change at line "
                         f"{op.line}",
                         "protocol: grow must keep the old mapping alive "
                         "while views are exported (tier._retired)"))
                break

    # DECA308: function-level — a drain whose copies nothing later frees.
    drains = [op for op in all_ops if op.kind == DRAIN and op.depth == 0]
    if drains:
        first = min(drains, key=lambda op: op.line)
        released = any(op.kind == RELEASE_COPY and op.line >= first.line
                       for op in all_ops)
        if not released:
            emit("DECA308",
                 f"{model.qualname} drains {first.resource!r} but never "
                 "shrinks or frees the transient copies",
                 first.line, model.qualname, (
                     f"drain: transient copies charged at line "
                     f"{first.line}",
                     "no shrink()/free_group() follows on any path"))

    for ops, terminated in paths:
        # DECA301/302: an export whose backing dies before any release.
        live: dict[str, int] = {}
        freed: set[str] = set()
        adopted_res: set[str] = set()
        for op in ops:
            if op.kind == EXPORT:
                live[op.resource] = op.line
                freed.discard(op.resource)
            elif op.kind == RELEASE:
                live.pop(op.resource, None)
            elif op.kind == ALLOC:
                freed.discard(op.resource)
            elif op.kind == ADOPT:
                adopted_res.add(op.resource)
            elif op.kind in (FREE, SEGRELEASE, UNLINK):
                resource = op.resource
                export_line = live.get(resource)
                if export_line is not None:
                    if resource.startswith("segment:"):
                        rule, what = "DECA302", "segment unlink/release"
                    else:
                        rule, what = "DECA301", "extent drop"
                    emit(rule,
                         f"view of {resource!r} exported at line "
                         f"{export_line} is still borrowed when the "
                         f"{what} at line {op.line} recycles its bytes",
                         op.line, f"{model.qualname}:{resource}", (
                             f"export: {resource} borrowed at line "
                             f"{export_line}",
                             "no release() on this path",
                             f"free: backing dies at line {op.line}"))
                # DECA303: a second free of the same backing.
                if op.kind in (FREE, UNLINK) or op.resource != "segment:*":
                    if resource in freed:
                        emit("DECA303",
                             f"{resource!r} is freed twice on one path "
                             f"(second free at line {op.line})",
                             op.line, f"{model.qualname}:{resource}:df", (
                                 f"first free on this path precedes line "
                                 f"{op.line}",
                                 "no reallocation between the frees"))
                    freed.add(resource)

        # DECA304: an adopted view's second handle escapes the function.
        for op in ops:
            if op.kind == ESCAPE and op.resource in adopted_res:
                emit("DECA304",
                     f"a view of {op.resource!r} escapes at line "
                     f"{op.line} after its adoption; the handle "
                     "outlives the group's reclaim",
                     op.line, f"{model.qualname}:{op.resource}", (
                         f"adopt: group takes ownership of {op.resource}",
                         f"escape: second handle kept at line {op.line}",
                         _ownership_why(
                             op.resource, "memoryview",
                             ContainerRef(ContainerKind.CACHE_BLOCK,
                                          "page-group", 0, 0),
                             "escaped-handle",
                             "the escaped handle is a secondary holder "
                             "the reclaim protocol never sees")))

    # DECA306: a teardown path returns early past its siblings' cleanup.
    if model.is_teardown:
        releasing_paths = [ops for ops, _term in paths
                           if any(op.kind in _RELEASING and op.depth == 0
                                  for op in ops)]
        if releasing_paths:
            for ops, terminated in paths:
                if not terminated:
                    continue
                if any(op.kind in _RELEASING and op.depth == 0
                       for op in ops):
                    continue
                final = next((op for op in reversed(ops)
                              if op.depth == 0
                              and op.kind in (RETURN, RAISE)), None)
                if final is None or final.kind == RAISE:
                    continue
                if final.line >= model.end_lineno:
                    continue  # the function's normal final return
                last_guard = next((op for op in reversed(ops)
                                   if op.kind == GUARD and op.depth == 0),
                                  None)
                if last_guard is not None and any(
                        word in last_guard.resource
                        for word in _IDEMPOTENT_WORDS):
                    continue  # idempotence / nothing-to-do guard
                emit("DECA306",
                     f"{model.qualname} can return at line {final.line} "
                     "without the release/drop calls its other paths "
                     "perform",
                     final.line, f"{model.qualname}:{final.line}", (
                         f"early return at line {final.line}",
                         "sibling paths release borrows/extents; this "
                         "one does not",
                         "guard is not an idempotence check"))
    return findings


# -- entry points ------------------------------------------------------------

M = TypeVar("M")


def _check_all(models: list[M], check: Callable[[M, str], list[Finding]],
               target: str) -> list[Finding]:
    return [finding for model in models for finding in check(model, target)]


def _audit(modules: tuple[tuple[str, str], ...],
           lower: Callable[[str, str, str], list[M]],
           check: Callable[[M, str], list[Finding]], target: str,
           findings_key: str,
           ) -> tuple[tuple[Finding, ...], dict[str, object], list[list[M]]]:
    """Lower and check *modules* (paths relative to the ``repro``
    package): the sorted findings, the summary both audits report, with
    the finding count under *findings_key*, and each module's models."""
    root = Path(__file__).resolve().parent.parent
    findings: list[Finding] = []
    lowered: list[list[M]] = []
    for module, relpath in modules:
        models = lower((root / relpath).read_text(), module, relpath)
        lowered.append(models)
        findings.extend(_check_all(models, check, target))
    summary: dict[str, object] = {
        "shadow": False,
        "modules": len(modules),
        "functions": sum(len(models) for models in lowered),
        findings_key: len(findings),
    }
    return sort_findings(findings), summary, lowered


def analyze_source(source: str, module: str, relpath: str,
                   target: str = "engine") -> list[Finding]:
    """Borrow-check one module's source text."""
    return _check_all(lower_module(source, module, relpath),
                      check_function, target)


def run_borrow_rules(modules: tuple[tuple[str, str], ...] = ENGINE_MODULES,
                     target: str = "engine",
                     ) -> tuple[tuple[Finding, ...], dict[str, object]]:
    """Borrow-check *modules*; returns (findings, summary)."""
    findings, summary, lowered = _audit(modules, lower_module,
                                        check_function, target,
                                        "borrow_findings")
    summary["scope_methods"] = sum(len(build_scope(models).methods)
                                   for models in lowered)
    return findings, summary
