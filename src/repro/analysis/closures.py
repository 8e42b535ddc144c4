"""Bytecode-level closure analysis: purity, determinism and escape.

The lifetime analysis assumes the compiler sees *all* code that can touch
a record (§4), but the Python closures handed to ``map`` / ``filter`` /
``reduceByKey`` live outside the mini-IR.  This module recovers the
missing facts directly from CPython bytecode (:mod:`dis`), deriving for
every user UDF:

* a **capture graph** — free variables with their cell contents, captured
  globals, default-argument values, and *illegal* captures of engine
  handles (a ``DecaContext`` or an RDD inside a UDF ships the whole
  driver into the task);
* a **determinism verdict** — references to ``random`` / ``time`` /
  ``os.environ`` / ``id()`` / ``hash()`` and friends, plus iteration-order
  hazards from captured sets, found by a bounded walk into called and
  captured Python functions;
* a **purity verdict** — ``STORE_GLOBAL``, writes to captured cells,
  mutating method calls and attribute/subscript stores through captured
  objects;
* an **escape verdict** — whether argument records can outlive the call
  (pushed into captured containers, stored globally, or closed over by an
  inner function), which forces conservative handling of the record's
  page layout.

The scan is deliberately shallow: it pattern-matches instruction
sequences instead of running an abstract interpreter, so every hazard
names a concrete opcode and line, and anything the bounded walk cannot
resolve degrades the verdict to ``unknown`` rather than guessing.

Findings surface as the ``DECA2xx`` lint family (:mod:`repro.lint`),
where the double-run differential shadow check cross-checks them at
runtime, and the escape verdict downgrades the optimizer's
decomposition decisions (:mod:`repro.core.optimizer`).

This module must not import :mod:`repro.spark` at module level — the
spark layer imports :mod:`repro.analysis` first (engine-handle checks are
resolved lazily).
"""

from __future__ import annotations

import dis
import inspect
import re
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

# -- rule ids (the DECA2xx family; catalogued in repro.lint.findings) --------
RULE_ILLEGAL_CAPTURE = "DECA201"
RULE_NONDETERMINISM = "DECA202"
RULE_ITERATION_ORDER = "DECA203"
RULE_IMPURITY = "DECA204"
RULE_ESCAPE = "DECA205"
RULE_MUTABLE_CAPTURE = "DECA206"

CLOSURE_RULE_FAMILY = "DECA2"
# The pragma wildcard: ``# deca: allow(DECA2xx)`` suppresses the family.
FAMILY_WILDCARD = "DECA2xx"

DEFAULT_CALL_DEPTH = 4

# -- allowlists (judged by *name*; the scan never calls user code) -----------
_PURE_BUILTINS = frozenset((
    "abs", "all", "any", "ascii", "bin", "bool", "bytes", "callable",
    "chr", "complex", "dict", "divmod", "enumerate", "filter", "float",
    "format", "frozenset", "getattr", "hasattr", "hex", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "min", "next", "oct", "ord", "pow", "range", "repr", "reversed",
    "round", "set", "slice", "sorted", "str", "sum", "tuple", "type",
    "zip",
))

# Builtins whose result depends on interpreter state (address layout,
# PYTHONHASHSEED, the console) — calling one makes the UDF's output
# unreproducible across attempts.
_NONDET_BUILTINS = frozenset(("id", "hash", "input", "object"))

# Builtins that touch state outside the closure.
_IMPURE_BUILTINS = frozenset((
    "print", "open", "exec", "eval", "compile", "setattr", "delattr",
    "globals", "locals", "vars", "breakpoint", "__import__",
))

# Modules every function of which is deterministic and side-effect free
# for our purposes.
_DETERMINISTIC_MODULES = frozenset((
    "math", "cmath", "zlib", "bisect", "operator", "itertools",
    "functools", "heapq", "string", "re", "json", "struct",
    "collections", "array", "decimal", "fractions", "statistics",
    "hashlib", "binascii", "unicodedata", "typing", "dataclasses",
    "enum", "abc", "copy",
))

# C accelerator modules, by the public module that re-exports them: a
# builtin reports the accelerator as its ``__module__`` (``operator.add``
# is ``_operator.add``), while the allowlist above names the public one.
_ACCELERATOR_MODULES = {
    "_operator": "operator", "_functools": "functools", "_heapq": "heapq",
    "_bisect": "bisect", "_collections": "collections", "_json": "json",
    "_struct": "struct", "_statistics": "statistics", "_decimal": "decimal",
    "_sre": "re", "_abc": "abc",
}

# Modules (or specific attributes of them) whose results vary between
# runs or attempts.  ``None`` marks the whole module nondeterministic.
_NONDET_MODULE_ATTRS: dict[str, Optional[frozenset[str]]] = {
    "random": None,
    "secrets": None,
    "uuid": None,
    "time": None,
    "socket": None,
    "threading": None,
    "multiprocessing": None,
    "asyncio": None,
    "datetime": frozenset(("now", "today", "utcnow")),
    "os": frozenset((
        "environ", "urandom", "getpid", "getppid", "times", "listdir",
        "scandir", "walk", "stat", "getcwd", "cpu_count", "getenv",
    )),
}

# Method names that mutate their receiver; a call through a captured
# object is a side effect, and pushing an argument in is an escape.
_MUTATING_METHODS = frozenset((
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
    "write", "writelines", "appendleft", "extendleft", "send", "put",
))

_MUTABLE_CONTAINER_TYPES = (list, dict, set, bytearray)

_LOAD_FAST_OPS = ("LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_FAST_AND_CLEAR")

_PRAGMA_RE = re.compile(r"#\s*deca:\s*allow\(([^)]*)\)")

_MISSING = object()


# -- result model ------------------------------------------------------------
@dataclass(frozen=True)
class Capture:
    """One value the closure carries in from outside its arguments."""

    name: str
    kind: str        # "cell" | "global" | "default"
    type_name: str
    mutable: bool
    illegal: bool = False

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "kind": self.kind,
                "type": self.type_name, "mutable": self.mutable,
                "illegal": self.illegal}


@dataclass(frozen=True)
class Hazard:
    """One suspicious fact, anchored at an opcode and source line."""

    rule_id: str
    reason: str
    opcode: str
    line: int
    via: tuple[str, ...] = ()   # call-graph path for recursed hazards

    def why(self, location: str) -> str:
        step = (f"[closure.dis] {self.opcode} at {location}:{self.line}: "
                f"{self.reason}")
        if self.via:
            step += " (via " + " -> ".join(self.via) + ")"
        return step


@dataclass(frozen=True)
class ClosureReport:
    """Everything the analyzer concluded about one UDF."""

    name: str
    qualname: str
    location: str
    line: int
    captures: tuple[Capture, ...]
    hazards: tuple[Hazard, ...]
    unresolved: tuple[str, ...]
    allowed: frozenset[str] = frozenset()

    @property
    def active_hazards(self) -> tuple[Hazard, ...]:
        """Hazards not suppressed by a ``# deca: allow(...)`` pragma."""
        if not self.allowed:
            return self.hazards
        if FAMILY_WILDCARD in self.allowed:
            return ()
        return tuple(h for h in self.hazards
                     if h.rule_id not in self.allowed)

    @property
    def suppressed_hazards(self) -> tuple[Hazard, ...]:
        active = set(map(id, self.active_hazards))
        return tuple(h for h in self.hazards if id(h) not in active)

    def _has(self, *rule_ids: str) -> bool:
        return any(h.rule_id in rule_ids for h in self.active_hazards)

    @property
    def determinism(self) -> str:
        """``deterministic`` | ``nondeterministic`` | ``unknown``."""
        if self._has(RULE_NONDETERMINISM, RULE_ITERATION_ORDER):
            return "nondeterministic"
        if self.unresolved:
            return "unknown"
        return "deterministic"

    @property
    def purity(self) -> str:
        """``pure`` | ``impure`` | ``unknown``."""
        if self._has(RULE_IMPURITY, RULE_ILLEGAL_CAPTURE):
            return "impure"
        if self.unresolved:
            return "unknown"
        return "pure"

    @property
    def escape(self) -> str:
        """``none`` | ``escapes`` | ``unknown``."""
        if self._has(RULE_ESCAPE):
            return "escapes"
        if self.unresolved:
            return "unknown"
        return "none"

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "location": self.location,
            "line": self.line,
            "captures": [c.to_dict() for c in self.captures],
            "hazards": [{"rule": h.rule_id, "reason": h.reason,
                         "opcode": h.opcode, "line": h.line,
                         "via": list(h.via)} for h in self.hazards],
            "unresolved": list(self.unresolved),
            "allowed": sorted(self.allowed),
            "determinism": self.determinism,
            "purity": self.purity,
            "escape": self.escape,
        }


# -- scan state --------------------------------------------------------------
@dataclass
class _Scan:
    """Mutable accumulator shared across the bounded call-graph walk."""

    captures: list[Capture] = field(default_factory=list)
    hazards: list[Hazard] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    visited: set[int] = field(default_factory=set)   # ids of code objects

    def hazard(self, rule_id: str, reason: str, opcode: str, line: int,
               via: tuple[str, ...]) -> None:
        self.hazards.append(Hazard(rule_id=rule_id, reason=reason,
                                   opcode=opcode, line=line, via=via))


@dataclass
class _Ref:
    """What the scanner believes the top-of-stack value refers to."""

    kind: str              # "global" | "cell" | "local" | "module" | "value"
    name: str              # dotted source-level chain
    value: Any = _MISSING


# -- helpers -----------------------------------------------------------------
def code_location(code: types.CodeType) -> str:
    """A stable, repo-relative location for *code* (byte-determinism)."""
    filename = code.co_filename.replace("\\", "/")
    for anchor in ("src/repro/", "tests/", "benchmarks/"):
        index = filename.find(anchor)
        if index >= 0:
            return filename[index:]
    if filename.startswith("<"):
        return filename
    return filename.rsplit("/", 1)[-1]


def _as_function(value: Any) -> Optional[types.FunctionType]:
    if isinstance(value, types.FunctionType):
        return value
    if isinstance(value, types.MethodType) and \
            isinstance(value.__func__, types.FunctionType):
        return value.__func__
    return None


def _owner_module(value: Any) -> str:
    """The top-level public module *value* was defined in ('' if none)."""
    owner = (getattr(value, "__module__", "") or "").split(".")[0]
    return _ACCELERATOR_MODULES.get(owner, owner)


def _is_engine_handle(value: Any) -> bool:
    """True for captured driver-side objects (DecaContext / RDD)."""
    module = type(value).__module__
    if not module.startswith("repro."):
        return False
    # Deferred import: the spark layer imports repro.analysis first.
    from ..spark.context import DecaContext
    from ..spark.rdd import RDD
    return isinstance(value, (DecaContext, RDD))


def _type_name(value: Any) -> str:
    return type(value).__name__


def _is_mutable(value: Any) -> bool:
    return isinstance(value, _MUTABLE_CONTAINER_TYPES)


def _module_attr_hazard(module: str, attr: str) -> Optional[str]:
    """A reason string when ``module.attr`` is a nondeterminism source."""
    root = module.split(".")[0]
    attrs = _NONDET_MODULE_ATTRS.get(root)
    if root in _NONDET_MODULE_ATTRS and (attrs is None or attr in attrs):
        return (f"references {module}.{attr} — its result varies between "
                "runs or task attempts")
    return None


def _captured_nondet_reason(name: str, value: Any) -> Optional[str]:
    """A reason string when captured *value* is a nondeterminism source:
    a ``random`` instance, or a function or bound method whose owner is
    in :data:`_NONDET_MODULE_ATTRS`.  A bound builtin's type is
    ``builtins``, so the owner is its ``__module__`` or its receiver's
    (``random.random`` is a method of the module's hidden
    ``random.Random``; ``datetime.now`` of the ``datetime`` class)."""
    if type(value).__module__ == "random":
        return f"captures {name!r}, a random.{_type_name(value)} instance"
    if isinstance(value, type) or not callable(value):
        return None
    receiver = getattr(value, "__self__", None)
    owners = (_owner_module(value),
              _owner_module(receiver if isinstance(receiver, type)
                            else type(receiver)))
    attr = getattr(value, "__name__", name)
    for owner in owners:
        reason = _module_attr_hazard(owner, attr)
        if reason is not None:
            return f"captures {name!r}, which {reason}"
    return None


def _pragma_allows(fn: types.FunctionType) -> frozenset[str]:
    """Rule ids suppressed by ``# deca: allow(...)`` pragmas in *fn*."""
    try:
        lines, _ = inspect.getsourcelines(fn)
    except (OSError, TypeError):
        return frozenset()   # exec'd / <string> functions have no source
    ids: set[str] = set()
    for line in lines:
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        for token in match.group(1).split(","):
            token = token.strip()
            if token:
                ids.add(token)
    return frozenset(ids)


def _cell_contents(fn: types.FunctionType) -> dict[str, Any]:
    cells: dict[str, Any] = {}
    closure = fn.__closure__ or ()
    for name, cell in zip(fn.__code__.co_freevars, closure):
        try:
            cells[name] = cell.cell_contents
        except ValueError:
            cells[name] = _MISSING   # still-empty cell (recursive defs)
    return cells


def _default_values(fn: types.FunctionType) -> dict[str, Any]:
    code = fn.__code__
    defaults: dict[str, Any] = {}
    positional = code.co_varnames[:code.co_argcount]
    for name, value in zip(positional[len(positional)
                                      - len(fn.__defaults__ or ()):],
                           fn.__defaults__ or ()):
        defaults[name] = value
    defaults.update(fn.__kwdefaults__ or {})
    return defaults


def _resolve_global(fn: types.FunctionType, name: str) -> Any:
    namespace = fn.__globals__
    if name in namespace:
        return namespace[name]
    builtins_ns = namespace.get("__builtins__")
    if isinstance(builtins_ns, dict):
        return builtins_ns.get(name, _MISSING)
    if builtins_ns is not None:
        return getattr(builtins_ns, name, _MISSING)
    return _MISSING


def _arg_names(code: types.CodeType) -> frozenset[str]:
    count = code.co_argcount + code.co_kwonlyargcount
    if code.co_flags & inspect.CO_VARARGS:
        count += 1
    if code.co_flags & inspect.CO_VARKEYWORDS:
        count += 1
    return frozenset(code.co_varnames[:count])


def _tainted_locals(instructions: list[dis.Instruction],
                    args: frozenset[str]) -> frozenset[str]:
    """Locals derived from arguments (two passes approximate a fixpoint).

    Covers the common shapes — ``y = x``, ``a, b = x`` and
    ``for v in x:`` — without a dataflow engine.
    """
    tainted = set(args)
    for _ in range(2):
        pending = False
        for index, instr in enumerate(instructions):
            if instr.opname in _LOAD_FAST_OPS and \
                    str(instr.argval) in tainted:
                pending = True
                continue
            if not pending:
                continue
            if instr.opname in ("UNPACK_SEQUENCE", "UNPACK_EX",
                                "GET_ITER", "FOR_ITER", "COPY", "SWAP"):
                continue   # taint flows through to the following stores
            if instr.opname == "STORE_FAST":
                tainted.add(str(instr.argval))
                # consecutive stores after an unpack stay tainted
                if index + 1 < len(instructions) and \
                        instructions[index + 1].opname == "STORE_FAST":
                    continue
            pending = False
    return frozenset(tainted)


# -- the scanner -------------------------------------------------------------
def _scan_function(fn: types.FunctionType, scan: _Scan, depth: int,
                   via: tuple[str, ...]) -> None:
    code = fn.__code__
    if id(code) in scan.visited:
        return
    scan.visited.add(id(code))

    cells = _cell_contents(fn)
    defaults = _default_values(fn)
    top_level = not via

    for name in sorted(cells):
        _inspect_capture(name, "cell", cells[name], fn, scan, depth, via,
                         record=top_level)
    for name in sorted(defaults):
        _inspect_capture(name, "default", defaults[name], fn, scan, depth,
                         via, record=top_level)

    _scan_code(code, fn, cells, scan, depth, via)


def _inspect_capture(name: str, kind: str, value: Any,
                     fn: types.FunctionType, scan: _Scan, depth: int,
                     via: tuple[str, ...], record: bool) -> None:
    """Classify one captured value; recurse into captured functions."""
    code = fn.__code__
    line = code.co_firstlineno
    if value is _MISSING:
        if record:
            scan.captures.append(Capture(name=name, kind=kind,
                                         type_name="<unbound>",
                                         mutable=False))
        return

    illegal = _is_engine_handle(value)
    if record:
        scan.captures.append(Capture(name=name, kind=kind,
                                     type_name=_type_name(value),
                                     mutable=_is_mutable(value),
                                     illegal=illegal))
    if illegal:
        scan.hazard(
            RULE_ILLEGAL_CAPTURE,
            f"captures live engine handle {name!r} "
            f"({_type_name(value)}) — UDFs must not carry the driver "
            "into tasks", "LOAD_DEREF" if kind == "cell" else "LOAD_CONST",
            line, via)
        return

    reason = _captured_nondet_reason(name, value)
    if reason is not None:
        scan.hazard(RULE_NONDETERMINISM, reason,
                    "LOAD_DEREF" if kind == "cell" else "LOAD_CONST",
                    line, via)
    if isinstance(value, (set, frozenset)):
        scan.hazard(
            RULE_ITERATION_ORDER,
            f"captures {_type_name(value)} {name!r}; iterating it is "
            "hash-order dependent across interpreter runs",
            "GET_ITER", line, via)
    if kind in ("global", "default") and _is_mutable(value):
        scan.hazard(
            RULE_MUTABLE_CAPTURE,
            f"captures mutable {_type_name(value)} {name!r} as a "
            f"{'module-level global' if kind == 'global' else 'default argument'}"
            " — shared state the retries of a task can observe mid-update",
            "LOAD_GLOBAL" if kind == "global" else "LOAD_CONST", line, via)

    child = _as_function(value)
    if child is not None:
        if depth <= 0:
            scan.unresolved.append(f"{name} (call depth exhausted)")
            return
        _scan_function(child, scan, depth - 1,
                       via + (getattr(child, "__qualname__",
                                      child.__name__),))


def _classify_global_load(name: str, fn: types.FunctionType, scan: _Scan,
                          depth: int, via: tuple[str, ...], line: int,
                          seen_globals: set[str]) -> _Ref:
    """Resolve a ``LOAD_GLOBAL``; emit hazards; return the stack ref."""
    value = _resolve_global(fn, name)

    if isinstance(value, types.ModuleType):
        return _Ref("module", value.__name__, value)

    if name in _NONDET_BUILTINS and (value is _MISSING
                                     or type(value).__module__ == "builtins"):
        scan.hazard(
            RULE_NONDETERMINISM,
            f"references builtin {name}() — the result depends on "
            "interpreter state (addresses / hash seed / console)",
            "LOAD_GLOBAL", line, via)
        return _Ref("value", name, value)
    if name in _IMPURE_BUILTINS and (value is _MISSING
                                     or type(value).__module__ == "builtins"):
        scan.hazard(
            RULE_IMPURITY,
            f"references builtin {name}() — a side effect outside the "
            "closure", "LOAD_GLOBAL", line, via)
        return _Ref("value", name, value)
    if name in _PURE_BUILTINS:
        return _Ref("value", name, value)

    if value is _MISSING:
        scan.unresolved.append(name)
        return _Ref("value", name, _MISSING)

    if _is_engine_handle(value):
        scan.hazard(
            RULE_ILLEGAL_CAPTURE,
            f"references live engine handle {name!r} "
            f"({_type_name(value)}) from module scope",
            "LOAD_GLOBAL", line, via)
        return _Ref("global", name, value)

    if isinstance(value, type):
        # An exception, or an ``itertools`` iterator (``repeat``,
        # ``chain``, ...): constructing one runs no user code.
        if issubclass(value, BaseException) or \
                _owner_module(value) == "itertools":
            return _Ref("value", name, value)
        # Instantiating an arbitrary class may do anything; stay honest.
        scan.unresolved.append(f"{name} (class)")
        return _Ref("value", name, value)

    child = _as_function(value)
    if child is not None:
        if depth <= 0:
            scan.unresolved.append(f"{name} (call depth exhausted)")
        else:
            _scan_function(child, scan, depth - 1,
                           via + (getattr(child, "__qualname__",
                                          child.__name__),))
        return _Ref("value", name, value)

    if callable(value):
        # A builtin from a known-deterministic module (e.g. an
        # ``operator`` function bound at module scope) is fine.
        owner = _owner_module(value)
        if owner in _DETERMINISTIC_MODULES:
            return _Ref("value", name, value)
        reason = _module_attr_hazard(owner or "<unknown>",
                                     getattr(value, "__name__", name))
        if reason is not None:
            scan.hazard(RULE_NONDETERMINISM, reason, "LOAD_GLOBAL",
                        line, via)
            return _Ref("value", name, value)
        scan.unresolved.append(name)
        return _Ref("value", name, value)

    # A plain data value captured from module scope.
    if name not in seen_globals:
        seen_globals.add(name)
        if not via:
            scan.captures.append(Capture(name=name, kind="global",
                                         type_name=_type_name(value),
                                         mutable=_is_mutable(value)))
        _inspect_capture(name, "global", value, fn, scan, depth, via,
                         record=False)
    return _Ref("global", name, value)


def _scan_code(code: types.CodeType, fn: types.FunctionType,
               cells: dict[str, Any], scan: _Scan, depth: int,
               via: tuple[str, ...]) -> None:
    """The instruction walk over one code object."""
    instructions = list(dis.get_instructions(code))
    args = _arg_names(code)
    tainted = _tainted_locals(instructions, args)
    imported: dict[str, str] = {}   # local name -> module it holds
    seen_globals: set[str] = set()
    arg_cells = frozenset(code.co_cellvars) & args

    def load_kind(index: int) -> tuple[str, str]:
        """(category, name) of the instruction at *index*, for lookbehind."""
        if index < 0:
            return "none", ""
        instr = instructions[index]
        name = str(instr.argval) if isinstance(instr.argval, str) else ""
        if instr.opname in _LOAD_FAST_OPS:
            return ("tainted" if name in tainted else "local"), name
        if instr.opname == "LOAD_DEREF" and name in cells:
            return "cell", name
        if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            return "global", name
        return "other", name

    def window_has_taint(start: int) -> Optional[str]:
        """A tainted local loaded between *start* and the next CALL."""
        for j in range(start, min(start + 8, len(instructions))):
            op = instructions[j].opname
            if op in _LOAD_FAST_OPS and \
                    str(instructions[j].argval) in tainted:
                return str(instructions[j].argval)
            if op.startswith("CALL") or op.startswith("RETURN"):
                break
        return None

    line = code.co_firstlineno
    ref: Optional[_Ref] = None
    pending_import: Optional[str] = None

    for index, instr in enumerate(instructions):
        if instr.starts_line is not None:
            line = instr.starts_line
        op = instr.opname
        name = str(instr.argval) if isinstance(instr.argval, str) else ""

        if op in ("LOAD_GLOBAL", "LOAD_NAME"):
            ref = _classify_global_load(name, fn, scan, depth, via, line,
                                        seen_globals)
        elif op == "LOAD_DEREF":
            value = cells.get(name, _MISSING)
            if isinstance(value, types.ModuleType):
                ref = _Ref("module", value.__name__, value)
            else:
                ref = _Ref("cell", name, value)
        elif op in _LOAD_FAST_OPS:
            if name in imported:
                ref = _Ref("module", imported[name])
            else:
                ref = _Ref("local", name)
        elif op in ("LOAD_ATTR", "LOAD_METHOD"):
            ref = _handle_attr(ref, name, scan, via, line, op,
                               lambda: window_has_taint(index + 1))
        elif op == "IMPORT_NAME":
            pending_import = name
            ref = _Ref("module", name)
        elif op == "IMPORT_FROM":
            if ref is not None and ref.kind == "module":
                reason = _module_attr_hazard(ref.name, name)
                if reason is not None:
                    scan.hazard(RULE_NONDETERMINISM, reason, op, line,
                                via)
        elif op == "STORE_FAST":
            if pending_import is not None:
                imported[name] = pending_import
                pending_import = None
            ref = None
        elif op in ("STORE_GLOBAL", "DELETE_GLOBAL"):
            scan.hazard(
                RULE_IMPURITY,
                f"writes module-level global {name!r}",
                op, line, via)
            kind, _ = load_kind(index - 1)
            if kind == "tainted":
                scan.hazard(
                    RULE_ESCAPE,
                    f"stores an argument-derived value into global "
                    f"{name!r}; the record outlives the call",
                    op, line, via)
            ref = None
        elif op == "STORE_DEREF":
            if name in code.co_freevars:
                scan.hazard(
                    RULE_IMPURITY,
                    f"rebinds captured cell {name!r} (nonlocal write)",
                    op, line, via)
                kind, _ = load_kind(index - 1)
                if kind == "tainted":
                    scan.hazard(
                        RULE_ESCAPE,
                        f"stores an argument-derived value into captured "
                        f"cell {name!r}", op, line, via)
            ref = None
        elif op == "STORE_ATTR":
            kind, target = load_kind(index - 1)
            if kind in ("cell", "global"):
                scan.hazard(
                    RULE_IMPURITY,
                    f"writes attribute .{name} of captured object "
                    f"{target!r}", op, line, via)
                prev_kind, _ = load_kind(index - 2)
                if prev_kind == "tainted":
                    scan.hazard(
                        RULE_ESCAPE,
                        f"stores an argument-derived value into "
                        f"{target}.{name}; the record outlives the call",
                        op, line, via)
            elif kind == "tainted":
                scan.hazard(
                    RULE_IMPURITY,
                    f"writes attribute .{name} of its input record "
                    f"({target!r})", op, line, via)
            ref = None
        elif op in ("STORE_SUBSCR", "DELETE_SUBSCR", "STORE_SLICE"):
            container_kind, target = load_kind(index - 2)
            key_kind, key_target = load_kind(index - 1)
            if container_kind not in ("cell", "global") and \
                    key_kind in ("cell", "global"):
                container_kind, target = key_kind, key_target
            if container_kind in ("cell", "global"):
                scan.hazard(
                    RULE_IMPURITY,
                    f"writes through subscript of captured object "
                    f"{target!r}", op, line, via)
                value_kind, _ = load_kind(index - 3)
                if value_kind == "tainted":
                    scan.hazard(
                        RULE_ESCAPE,
                        f"stores an argument-derived value into captured "
                        f"container {target!r}", op, line, via)
            elif container_kind == "tainted":
                scan.hazard(
                    RULE_IMPURITY,
                    f"writes through subscript of its input record "
                    f"({target!r})", op, line, via)
            ref = None
        elif op == "MAKE_FUNCTION":
            inner = _nearest_code_const(instructions, index)
            if inner is not None:
                # Comprehensions/genexprs are consumed inline — closing
                # over an argument there is not an escape.
                inline = inner.co_name in ("<genexpr>", "<listcomp>",
                                           "<setcomp>", "<dictcomp>")
                escaping = frozenset(inner.co_freevars) & (tainted
                                                           | arg_cells)
                if escaping and not inline:
                    scan.hazard(
                        RULE_ESCAPE,
                        "an inner function closes over argument-derived "
                        f"value(s) {sorted(escaping)}; records escape "
                        "inside the returned closure",
                        op, line, via)
                _scan_code(inner, fn, {}, scan, depth, via
                           + (f"<inner:{inner.co_name}>",))
            ref = None
        elif op.startswith("CALL") or op in ("POP_TOP", "RETURN_VALUE"):
            ref = None
        # every other opcode leaves the tracked ref untouched


def _handle_attr(ref: Optional[_Ref], attr: str, scan: _Scan,
                 via: tuple[str, ...], line: int, op: str,
                 taint_probe: Callable[[], Optional[str]]
                 ) -> Optional[_Ref]:
    """One attribute/method access through the tracked reference."""
    if ref is None:
        return None
    if ref.kind == "module":
        reason = _module_attr_hazard(ref.name, attr)
        if reason is not None:
            scan.hazard(RULE_NONDETERMINISM, reason, op, line, via)
            return _Ref("value", f"{ref.name}.{attr}")
        root = ref.name.split(".")[0]
        child: Any = _MISSING
        if isinstance(ref.value, types.ModuleType):
            child = getattr(ref.value, attr, _MISSING)
        if isinstance(child, types.ModuleType):
            return _Ref("module", child.__name__, child)
        if root not in _DETERMINISTIC_MODULES and \
                root not in _NONDET_MODULE_ATTRS:
            scan.unresolved.append(f"{ref.name}.{attr}")
        return _Ref("value", f"{ref.name}.{attr}", child)

    if ref.kind in ("cell", "global"):
        if ref.value is not _MISSING and \
                type(ref.value).__module__ == "random":
            scan.hazard(
                RULE_NONDETERMINISM,
                f"calls .{attr}() on captured random instance "
                f"{ref.name!r}", op, line, via)
            return _Ref("value", f"{ref.name}.{attr}")
        if attr in _MUTATING_METHODS:
            scan.hazard(
                RULE_IMPURITY,
                f"calls mutating method .{attr}() on captured "
                f"{_type_name(ref.value) if ref.value is not _MISSING else 'object'} "
                f"{ref.name!r}", op, line, via)
            tainted_arg = taint_probe()
            if tainted_arg is not None:
                scan.hazard(
                    RULE_ESCAPE,
                    f"pushes argument-derived value {tainted_arg!r} into "
                    f"captured container {ref.name!r} via .{attr}(); the "
                    "record outlives the call", op, line, via)
        return _Ref("value", f"{ref.name}.{attr}")

    if ref.kind == "local" or ref.kind == "tainted":
        # Methods on locals/arguments: judged by name only.  A mutating
        # call on an *argument* mutates the input record.
        return _Ref("value", f"{ref.name}.{attr}")
    return _Ref("value", f"{ref.name}.{attr}")


def _nearest_code_const(instructions: list[dis.Instruction],
                        index: int) -> Optional[types.CodeType]:
    for j in range(index - 1, max(-1, index - 4), -1):
        candidate = instructions[j].argval
        if isinstance(candidate, types.CodeType):
            return candidate
    return None


# -- entry points ------------------------------------------------------------
def analyze_closure(fn: Callable[..., Any], *,
                    max_depth: int = DEFAULT_CALL_DEPTH) -> ClosureReport:
    """Analyze one Python UDF; see the module docstring for the model."""
    function = _as_function(fn)
    if function is None:
        raise TypeError(f"analyze_closure needs a Python function, "
                        f"got {type(fn).__name__}")
    scan = _Scan()
    _scan_function(function, scan, max_depth, ())
    code = function.__code__

    # Mutating methods called on *arguments* are impurity too; they are
    # detected in the attr handler via the local-taint path below.
    _flag_argument_mutations(function, scan)

    return ClosureReport(
        name=function.__name__,
        qualname=function.__qualname__,
        location=code_location(code),
        line=code.co_firstlineno,
        captures=tuple(sorted(scan.captures,
                              key=lambda c: (c.kind, c.name))),
        hazards=_dedupe_hazards(scan.hazards),
        unresolved=tuple(sorted(set(scan.unresolved))),
        allowed=_pragma_allows(function),
    )


def _flag_argument_mutations(fn: types.FunctionType, scan: _Scan) -> None:
    """``arg.append(...)``-style writes mutate the input record."""
    code = fn.__code__
    instructions = list(dis.get_instructions(code))
    args = _arg_names(code)
    tainted = _tainted_locals(instructions, args)
    line = code.co_firstlineno
    for index, instr in enumerate(instructions):
        if instr.starts_line is not None:
            line = instr.starts_line
        if instr.opname not in ("LOAD_ATTR", "LOAD_METHOD"):
            continue
        attr = str(instr.argval)
        if attr not in _MUTATING_METHODS:
            continue
        prev = instructions[index - 1] if index else None
        if prev is not None and prev.opname in _LOAD_FAST_OPS and \
                str(prev.argval) in tainted:
            scan.hazard(
                RULE_IMPURITY,
                f"calls mutating method .{attr}() on argument-derived "
                f"local {prev.argval!r} — the input record is modified "
                "in place", instr.opname, line, ())


def _dedupe_hazards(hazards: list[Hazard]) -> tuple[Hazard, ...]:
    seen: set[tuple[str, str, str, int, tuple[str, ...]]] = set()
    unique: list[Hazard] = []
    for hazard in hazards:
        key = (hazard.rule_id, hazard.reason, hazard.opcode, hazard.line,
               hazard.via)
        if key in seen:
            continue
        seen.add(key)
        unique.append(hazard)
    return tuple(sorted(unique,
                        key=lambda h: (h.rule_id, h.line, h.reason)))


def analyze_value(value: Any, *,
                  max_depth: int = DEFAULT_CALL_DEPTH
                  ) -> Optional[ClosureReport]:
    """Analyze any callable the engine was handed.

    Python functions get the full scan; allowlisted C builtins (``min``
    as a merge function, ``operator.add``, ...) get a clean synthetic
    report; anything else callable is honest about being unanalyzable.
    Returns ``None`` for non-callables.
    """
    function = _as_function(value)
    if function is not None:
        return analyze_closure(function, max_depth=max_depth)
    if not callable(value):
        return None
    name = getattr(value, "__name__", type(value).__name__)
    owner = _owner_module(value)
    clean = (name in _PURE_BUILTINS and owner in ("builtins", "")) \
        or owner in _DETERMINISTIC_MODULES
    return ClosureReport(
        name=name, qualname=name, location="<builtin>", line=0,
        captures=(), hazards=(),
        unresolved=() if clean else (f"{name} (not a Python function)",),
        allowed=frozenset(),
    )


def iter_hazard_rules(report: ClosureReport) -> Iterator[str]:
    """The distinct active rule ids of *report*, sorted."""
    yield from sorted({h.rule_id for h in report.active_hazards})
