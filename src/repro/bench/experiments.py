"""The experiment table behind ``python -m repro.bench``.

Each ablation the CLI runs is one :class:`Experiment` row: the function
that builds its cells from the :mod:`.harness` points, the gates that
judge them, the column spec that renders them and the payload that
serialises them.  :func:`run_experiment` is the one driver: it runs a
row, prints its table, evaluates the gates under ``check`` and writes
the JSON/text artifacts.  The CLI subcommands (``memory``, ``tier``,
``sql``, ``backend``, ``sanitize``), the ``benchmarks/test_ablation_*``
files (with ``commit=True``) and the gate assertions of
``tests/test_config_matrix.py`` (through the per-cell predicates below)
all go through these rows, so an experiment has one implementation and
one definition of "passes".

Every row names its clock: ``"sim"`` numbers are SimClock seconds,
identical across hosts and runs; ``"real"`` numbers are
``time.perf_counter`` seconds and vary.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..apps.sql_queries import suite_queries
from ..config import DecaConfig, ExecutionMode
from ..errors import SanitizerError
from .harness import (
    COLD_TIERS,
    MEMORY_WORKLOADS,
    SQL_LAYOUTS,
    cell_inputs,
    result_digest,
    run_cell,
    run_lr_point,
    run_memory_point,
    run_sql_point,
    run_sql_swap_roundtrip,
    tier_summary,
)
from .report import format_table, write_json_result, write_result

Cell = dict[str, Any]
Cells = dict[str, Cell]
#: ``(header, cell key | function of the cell)``.
Column = tuple[str, "str | Callable[[Cell], object]"]


class Gate(NamedTuple):
    """A named predicate over an experiment's cells."""

    name: str
    holds: Callable[[Cells], bool]


@dataclass(frozen=True)
class Experiment:
    """One row of the table: everything ``repro.bench <name>`` does."""

    name: str                     # CLI subcommand
    element: str                  # paper element or ablation it reproduces
    clock: str                    # "sim" | "real"
    result: str                   # results/<result>.txt, BENCH_<result>.json
    title: str                    # title of the rendered table
    run: Callable[[], Cells]
    columns: tuple[Column, ...]
    gates: tuple[Gate, ...]
    asides: tuple[str, ...] = ()  # cells printed under the table, not in it
    #: The JSON body; rows with committed files keep those files' shape.
    payload: Callable[[Cells], dict] = lambda cells: {"points": cells}


# -- Per-cell predicates — shared with tests/test_config_matrix.py -----------

def reproduces_baseline(cell: Cell) -> bool:
    """The cell computed the answer its experiment's first cell did."""
    return cell["equivalent"] is True


def swap_moves_bytes(swap: Cell) -> bool:
    """mmap tier: the swap is a byte move into the tier, never a
    serializer pass (``tier_summary`` / ``run_sql_swap_roundtrip``)."""
    return (swap["swap_copy_bytes"] == 0
            and swap["tier"].get("bytes_moved_out", 0) > 0)


def swap_returns_bytes(swap: Cell) -> bool:
    """mmap tier, forced promotion: the bytes came back as pages (LR
    reads its cold blocks in place, so only the SQL round trip gates
    this)."""
    return swap["tier"].get("bytes_moved_in", 0) > 0


def swap_pays_copies(swap: Cell) -> bool:
    """heap tier: the swap is paid for in serializer copies and no tier
    exists to move bytes into."""
    return swap["swap_copy_bytes"] > 0 and not swap["tier"]


def roundtrip_is_clean(swap: Cell) -> bool:
    """SQL demote/promote: bytes left, every query reproduced its
    resident digest, and the engine's sanitizer counted no violation
    (``ledger_violations``)."""
    return (swap["bytes_moved_out"] > 0
            and swap["resident_digests"] == swap["promoted_digests"]
            and swap["ledger_violations"] == 0)


def shares_pages(stats: Cell) -> bool:
    """mp backend: decomposed data crossed processes in shared segments
    (``RunMetrics.backend``)."""
    return stats["bytes_shared"] > 0


def pickles_no_records(stats: Cell) -> bool:
    """mp backend, fully decomposed shuffle (WordCount): not one record
    byte was pickled."""
    return stats["bytes_pickled_records"] == 0


def sanitizer_silent(cell: Cell) -> bool:
    """The runtime sanitizer ran (a non-empty summary) and recorded zero
    violations."""
    return bool(cell["sanitize"]) and cell["sanitize"]["violations"] == 0


def over(predicate: Callable[[Cell], bool],
         *keys: str) -> Callable[[Cells], bool]:
    """Lift a per-cell predicate to the cells named *keys* (default:
    every cell of the experiment)."""
    return lambda cells: all(predicate(cells[key]) for key in keys or cells)


def _points(cells: Cells, *fields: str) -> Cells:
    return {key: {name: cell[name] for name in fields}
            for key, cell in cells.items()}


# -- memory — static split vs unified arena (docs/memory_model.md) -----------

MEMORY_MODES = ("static", "unified")


def _memory_cells() -> Cells:
    cells: Cells = {}
    for workload in MEMORY_WORKLOADS:
        results = []
        for memory_mode in MEMORY_MODES:
            row = run_memory_point(workload, memory_mode,
                                   ExecutionMode.SPARK)
            summary = row.extra["memory"]
            events, arena = summary["events"], summary["arena"]
            results.append(row.extra["run"].result)
            cells[f"{workload}/{memory_mode}"] = {
                "workload": workload, "memory_mode": memory_mode,
                "mode": row.mode,
                "spills": events.get("shuffle:spill", 0)
                + events.get("shuffle:merge-spill", 0),
                "spilled_bytes": summary["spilled_bytes"],
                "swapouts": events.get("cache:swap-out", 0),
                "swapped_cache_bytes": summary["swapped_cache_bytes"],
                "borrows": arena.get("borrow_events", 0),
                "evicts": arena.get("evict_events", 0),
                "rejects": events.get("memory:reject", 0),
                "arena": arena,
                "exec_s": round(row.exec_s, 6),
                "equivalent": results[-1] == results[0],
            }
    return cells


MEMORY = Experiment(
    name="memory",
    element="ablation: static split vs unified memory arena",
    clock="sim",
    result="ablation_memory",
    title="Ablation: static split vs unified memory arena (equal heap)",
    run=_memory_cells,
    columns=(("workload", "workload"), ("memory_mode", "memory_mode"),
             ("mode", "mode"), ("spills", "spills"),
             ("spilled_B", "spilled_bytes"), ("swapouts", "swapouts"),
             ("borrows", "borrows"), ("evicts", "evicts"),
             ("rejects", "rejects"), ("exec(s)", "exec_s")),
    gates=(
        Gate("both arenas compute the same answers",
             over(reproduces_baseline)),
        # Strictly less than the static wall — which therefore spilled.
        Gate("shuffle-heavy: the unified pool spills strictly less",
             lambda cells: cells["shuffle-heavy/unified"]["spilled_bytes"]
             < cells["shuffle-heavy/static"]["spilled_bytes"]),
        Gate("cache-heavy: the unified cache borrows and is evicted back",
             lambda cells: cells["cache-heavy/unified"]["borrows"] > 0
             and cells["cache-heavy/unified"]["evicts"] > 0),
        Gate("cache-heavy: the static split rejects oversized blocks",
             lambda cells: cells["cache-heavy/static"]["rejects"] > 0),
    ),
    payload=lambda cells: {
        "modes": list(MEMORY_MODES),
        "points": _points(cells, "spills", "spilled_bytes",
                          "swapped_cache_bytes", "arena", "exec_s"),
    },
)


# -- tier — heap vs mmap cold tier on the swapping LR point ------------------

TIER_LABEL = "200GB"


def _tier_cells() -> Cells:
    """LR at ~2.3x the old generation: cached page groups are evicted and
    read back all run long — exactly the traffic the tier moves."""
    cells: Cells = {}
    digests = []
    for tier in COLD_TIERS:
        row = run_lr_point(TIER_LABEL, ExecutionMode.DECA, cold_tier=tier)
        summary = tier_summary(row.extra["run"])
        digests.append(result_digest(row.extra["run"].result))
        cells[tier] = {
            **summary, "exec_s": round(row.exec_s, 6),
            "swapouts": summary["events"].get("cache:swap-out", 0),
            "digest": digests[-1], "equivalent": digests[-1] == digests[0],
        }
    return cells


TIER = Experiment(
    name="tier",
    element="ablation: heap vs mmap cold tier (App. C swapping regime)",
    clock="sim",
    result="ablation_tier",
    title=f"Ablation: heap vs mmap cold tier (LR {TIER_LABEL}, deca mode)",
    run=_tier_cells,
    columns=(("tier", "cold_tier"), ("exec(s)", "exec_s"),
             ("swapouts", "swapouts"), ("swapped_B", "swapped_bytes"),
             ("heap_copy_B", "swap_copy_bytes"),
             ("tier_moved_B", "tier_bytes_moved"), ("digest", "digest")),
    gates=(
        Gate("both tiers compute the same answer",
             over(reproduces_baseline)),
        Gate("heap tier pays for the swap in serializer copies",
             over(swap_pays_copies, "heap")),
        Gate("mmap tier moves the bytes with zero serializer copies",
             over(swap_moves_bytes, "mmap")),
    ),
)


# -- sql — row vs columnar cache layout (docs/sql_engine.md) -----------------

SQL_RANKINGS_ROWS = 4_000
SQL_USERVISITS_ROWS = 8_000
_SQL_QUERIES = tuple(sorted(name for name, _ in suite_queries()))
#: The batch kernels the columnar layout must win (top-k is sort-bound).
_SQL_KERNELS = ("scan", "filter", "groupby")


def _sql_cells() -> Cells:
    cells: Cells = {layout: run_sql_point(layout, SQL_RANKINGS_ROWS,
                                          SQL_USERVISITS_ROWS)
                    for layout in SQL_LAYOUTS}
    cells["swap_roundtrip"] = run_sql_swap_roundtrip(SQL_RANKINGS_ROWS,
                                                     SQL_USERVISITS_ROWS)
    return cells


SQL = Experiment(
    name="sql",
    element="ablation: row vs columnar SQL cache layout (§6.6 suite)",
    clock="sim",
    result="ablation_sql",
    title="Ablation: row vs columnar SQL cache layout",
    run=_sql_cells,
    columns=(("layout", "layout"),
             *((f"{query}(ms)",
                lambda cell, query=query: round(cell["wall_ms"][query], 4))
               for query in _SQL_QUERIES),
             ("cached(B)", "cached_bytes"),
             ("digests", lambda cell: ",".join(cell["digests"][query][:8]
                                               for query in _SQL_QUERIES))),
    asides=("swap_roundtrip",),
    gates=(
        Gate("both layouts agree on every query digest",
             lambda cells: cells["row"]["digests"]
             == cells["columnar"]["digests"]),
        Gate("columnar kernels are faster on scan, filter and groupby",
             lambda cells: all(cells["columnar"]["wall_ms"][kernel]
                               < cells["row"]["wall_ms"][kernel]
                               for kernel in _SQL_KERNELS)),
        Gate("the columnar cache is no larger than the row cache",
             lambda cells: cells["columnar"]["cached_bytes"]
             <= cells["row"]["cached_bytes"]),
        Gate("mmap round trip reproduces every digest, sanitizer clean",
             over(roundtrip_is_clean, "swap_roundtrip")),
        Gate("mmap round trip demotes raw bytes with zero serializer copies",
             over(swap_moves_bytes, "swap_roundtrip")),
        Gate("mmap round trip promotes the bytes back as pages",
             over(swap_returns_bytes, "swap_roundtrip")),
    ),
    payload=lambda cells: {
        "layouts": list(SQL_LAYOUTS),
        "cells": {layout: cells[layout] for layout in SQL_LAYOUTS},
        "swap_roundtrip": cells["swap_roundtrip"],
    },
)


# -- backend — sim vs mp execution backend (docs/execution_backends.md) ------

BACKENDS = ("sim", "mp")
BACKEND_APPS = ("wc", "pr")
BACKEND_INPUTS = dict(seed=17, words=30_000, keys=1_500, nodes=300,
                      edges=1_500)
_BACKEND_COUNTERS = ("bytes_pickled_records", "bytes_pickled_results",
                     "bytes_shared", "segments_created", "mp_tasks")


def _backend_cells() -> Cells:
    inputs = cell_inputs(**BACKEND_INPUTS)
    cells: Cells = {}
    first: dict[str, str] = {}        # app -> digest on BACKENDS[0]
    for backend in BACKENDS:
        for app in BACKEND_APPS:
            config = DecaConfig(mode=ExecutionMode.DECA,
                                execution_backend=backend)
            start = time.perf_counter()
            digest, run = run_cell(app, inputs, config)
            wall_s = time.perf_counter() - start
            stats = run.metrics.backend
            cells[f"{app}/{backend}"] = {
                "app": app, "backend": backend,
                "wall_s": round(wall_s, 6), "digest": digest,
                "equivalent": digest == first.setdefault(app, digest),
                **{name: stats.get(name, 0) for name in _BACKEND_COUNTERS},
            }
    return cells


BACKEND = Experiment(
    name="backend",
    element="ablation: sim vs mp execution backend",
    clock="real",
    result="ablation_backend",
    title="Ablation: sim vs mp execution backend (real wall seconds)",
    run=_backend_cells,
    columns=(("app", "app"), ("backend", "backend"), ("wall(s)", "wall_s"),
             ("pickled_rec_B", "bytes_pickled_records"),
             ("pickled_res_B", "bytes_pickled_results"),
             ("shared_B", "bytes_shared"), ("segments", "segments_created"),
             ("mp_tasks", "mp_tasks")),
    gates=(
        Gate("mp reproduces sim bit for bit", over(reproduces_baseline)),
        Gate("WordCount crosses processes without pickling a record",
             over(pickles_no_records, "wc/mp")),
        Gate("decomposed data crosses in shared pages",
             over(shares_pages, "wc/mp", "pr/mp")),
    ),
    payload=lambda cells: {
        "backends": list(BACKENDS),
        "points": _points(cells, "wall_s", *_BACKEND_COUNTERS[:4],
                          "equivalent"),
    },
)


# -- sanitize — clean WC / PageRank runs under the runtime sanitizer ---------

def _sanitize_cells() -> Cells:
    inputs = cell_inputs()
    cells: Cells = {}
    for backend in BACKENDS:
        for app in BACKEND_APPS:
            config = DecaConfig(mode=ExecutionMode.DECA,
                                execution_backend=backend,
                                cold_tier="mmap", sanitize=True)
            cell: Cell = {"app": app, "backend": backend,
                          "sanitize": {}, "verdict": "clean"}
            try:
                _, run = run_cell(app, inputs, config)
            except SanitizerError as exc:
                cell["verdict"] = str(exc)
            else:
                cell["sanitize"] = dict(run.metrics.sanitize)
            cells[f"{app}/{backend}"] = cell
    return cells


SANITIZE = Experiment(
    name="sanitize",
    element="seeded DECA30x/40x fixtures, then clean WC + PageRank under "
            "the runtime sanitizer",
    clock="sim",
    result="sanitize_clean_runs",
    title="Clean runs under sanitize=True (deca mode, cold_tier=mmap)",
    run=_sanitize_cells,
    columns=(("app", "app"), ("backend", "backend"),
             ("borrows", lambda cell: cell["sanitize"].get("borrows", 0)),
             ("frees", lambda cell: cell["sanitize"].get("frees", 0)),
             ("violations",
              lambda cell: cell["sanitize"].get("violations", "-")),
             ("verdict", "verdict")),
    gates=(
        Gate("the sanitizer ran on every cell and stayed silent",
             over(sanitizer_silent)),
    ),
)


EXPERIMENTS: tuple[Experiment, ...] = (MEMORY, TIER, SQL, BACKEND, SANITIZE)


# -- The one driver ----------------------------------------------------------

def run_experiment(row: Experiment, *, check: bool = False,
                   json_name: str | None = None,
                   commit: bool = False) -> list[str]:
    """Run *row*, print its table and return the names of failed gates.

    The table has one line per cell (asides excluded) in key order.
    Gates are evaluated (and each verdict printed) only under *check*.
    *json_name* writes the payload to ``benchmarks/results/<name>.json``;
    *commit* rewrites the row's committed artifacts instead —
    ``<result>.txt`` and ``BENCH_<result>.json``.
    """
    cells = row.run()
    print(f"repro.bench {row.name} · clock={row.clock} · {row.element}")
    table = format_table(
        row.title, [header for header, _ in row.columns],
        [[cell[column] if isinstance(column, str) else column(cell)
          for _, column in row.columns]
         for key, cell in sorted(cells.items()) if key not in row.asides])
    print(table)
    for key in row.asides:
        shown = " ".join(f"{name}={value}"
                         for name, value in sorted(cells[key].items())
                         if not isinstance(value, dict))
        print(f"{key}: {shown}")
    if commit:
        write_result(row.result, table)
        json_name = f"BENCH_{row.result}"
    if json_name:
        path = write_json_result(json_name, {
            "benchmark": row.result, "clock": row.clock,
            **row.payload(cells)})
        print(f"wrote {path}")
    failed = []
    if check:
        for gate in row.gates:
            if gate.holds(cells):
                print(f"gate ok      {gate.name}")
            else:
                print(f"gate FAILED  {gate.name}", file=sys.stderr)
                failed.append(gate.name)
    return failed
