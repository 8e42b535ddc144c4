"""UDT classification and code analysis (paper §3 and §4.3).

This package reproduces Deca's static analyses over a Python model of Scala
UDTs and a mini method-IR standing in for JVM bytecode (the paper uses the
Soot framework; see DESIGN.md for the substitution argument):

* :mod:`repro.analysis.udt` — the annotated type model: classes, fields with
  declared types and runtime *type-sets*, arrays, primitives;
* :mod:`repro.analysis.size_type` — the SFST < RFST < VST variability
  lattice plus recursively-defined types;
* :mod:`repro.analysis.local` — Algorithm 1, the local classification;
* :mod:`repro.analysis.ir` / :mod:`repro.analysis.callgraph` — method bodies
  and the per-scope call graph;
* :mod:`repro.analysis.symconst` — symbolized constant propagation (Fig. 4);
* :mod:`repro.analysis.global_refine` — Algorithms 2/3/4: init-only fields,
  fixed-length array detection, SFST/RFST refinement;
* :mod:`repro.analysis.phased` — per-phase refinement (§3.4);
* :mod:`repro.analysis.pointsto` — object-to-container binding (§4.3);
* :mod:`repro.analysis.closures` — bytecode-level purity / determinism /
  escape analysis of the Python UDFs the engine executes (the code the
  mini-IR cannot see).
"""

from importlib import import_module
from typing import Any

from .size_type import SizeType, max_variability
from .udt import (
    ArrayType,
    ClassType,
    DataType,
    Field,
    PrimitiveType,
    BOOLEAN,
    BYTE,
    CHAR,
    SHORT,
    INT,
    FLOAT,
    LONG,
    DOUBLE,
)
from .local import LocalClassifier, classify_locally
from .ir import (
    ArrayLength,
    Assign,
    BinOp,
    Call,
    Const,
    If,
    LoadField,
    Local,
    Loop,
    Method,
    NewArray,
    NewObject,
    Return,
    StoreElement,
    StoreField,
    SymInput,
)
from .callgraph import CallGraph
from .symconst import Affine, TOP, AbstractValue, SymbolicInterpreter
from .global_refine import GlobalClassifier

#: Names served by a submodule the engine does not import: the lint, the
#: explain reports and the tests use them, and ``repro.core.optimizer``
#: imports ``closures`` itself when it plans a deca cache.  Each loads on
#: its first attribute access (PEP 562), so ``import repro.spark`` reads
#: none of their source.
_LAZY = {
    "phased": ("Phase", "PhasedClassifier", "PhaseReport"),
    "explain": ("Provenance", "ProvenanceStep", "explain_classification",
                "explain_phases", "explain_provenance", "render_provenance"),
    "closures": ("Capture", "ClosureReport", "Hazard", "analyze_closure",
                 "analyze_value", "code_location"),
    "pointsto": ("ContainerKind", "ContainerRef", "CreationSite",
                 "Ownership", "PointsToBinding", "assign_all",
                 "assign_ownership"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items()
               for name in names}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "SizeType",
    "max_variability",
    "ArrayType",
    "ClassType",
    "DataType",
    "Field",
    "PrimitiveType",
    "BOOLEAN",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "FLOAT",
    "LONG",
    "DOUBLE",
    "LocalClassifier",
    "classify_locally",
    "ArrayLength",
    "Assign",
    "BinOp",
    "Call",
    "Const",
    "If",
    "LoadField",
    "Local",
    "Loop",
    "Method",
    "NewArray",
    "NewObject",
    "Return",
    "StoreElement",
    "StoreField",
    "SymInput",
    "CallGraph",
    "Affine",
    "TOP",
    "AbstractValue",
    "SymbolicInterpreter",
    "GlobalClassifier",
    "Phase",
    "PhasedClassifier",
    "PhaseReport",
    "ContainerKind",
    "ContainerRef",
    "CreationSite",
    "Ownership",
    "PointsToBinding",
    "assign_all",
    "assign_ownership",
    "Capture",
    "ClosureReport",
    "Hazard",
    "analyze_closure",
    "analyze_value",
    "code_location",
    "Provenance",
    "ProvenanceStep",
    "explain_classification",
    "explain_phases",
    "explain_provenance",
    "render_provenance",
]
