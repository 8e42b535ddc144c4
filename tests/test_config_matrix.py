"""The configuration matrix, tested cell against cell.

The paper has one configuration axis (Spark / SparkSer / Deca); the
engine added four: ``execution_backend``, ``cold_tier``, ``memory_mode``
and ``sanitize``.  This module is the *Equivalence* contract of the
ROADMAP in one place: every cell of

    mode {spark, spark-ser, deca} x backend {sim, mp}
         x cold_tier {heap, mmap} x memory_mode {static, unified}

runs every :mod:`repro.apps` workload with both runtime sanitizers on and
is compared with **one reference cell** — spark mode on sim / heap /
static with the sanitizers off.  A cell passes when

* its result digest equals the reference's (no axis changes an answer);
* the provenance ledger and the vector-clock checker both ran and
  recorded zero violations;
* the zero-copy counters say what the axis promises — the Deca swap on
  the mmap tier is a byte move (no serializer copies, bytes in the
  tier), and Deca data crosses processes in shared pages (WordCount
  pickles no record bytes);
* on the deterministic backend a second run serializes byte-identically;
* nothing is left behind: no ``repro-mp-<pid>-*`` segment, no
  ``repro-tier-<pid>-*`` file.

The inputs are tiny on purpose and the heaps tinier (32 KB), so the axes
are not inert: WordCount, PageRank and ConnectedComponents spill under
the static arena and do not under the unified one, KMeans and LR swap
their caches in every mode on the sim backend (the reference LR run's
``swapped_cache_bytes`` is asserted; mp keeps cache blocks in shared
segments), and minor and full collections run throughout.

The §6.6 SQL suite gets its own, smaller product: ``SqlEngine`` ignores
the backend and always charges a unified arena, so it is run over the
two axes it reads, ``cold_tier`` x ``sanitize``, with a forced
demote/promote round trip.  See docs/memory_model.md ("The configuration
matrix") for the table of axes.
"""

import glob
import itertools
import json
import os
import tempfile
from functools import cache

import pytest

from repro.bench.experiments import (
    BACKENDS,
    MEMORY_MODES,
    pickles_no_records,
    roundtrip_is_clean,
    sanitizers_silent,
    shares_pages,
    swap_moves_bytes,
    swap_pays_copies,
    swap_returns_bytes,
)
from repro.bench.harness import (
    CELL_APPS,
    COLD_TIERS,
    LR_PARTITIONS,
    cell_inputs,
    lr_config,
    run_cell,
    run_sql_swap_roundtrip,
    tier_summary,
)
from repro.config import KB, DecaConfig, ExecutionMode
from repro.exec.shm import SEGMENT_PREFIX, list_segments, shm_available
from repro.memory.tier import TIER_FILE_PREFIX

#: The cell every other cell is compared with.
REFERENCE = dict(mode=ExecutionMode.SPARK, execution_backend="sim",
                 cold_tier="heap", memory_mode="static", sanitize=False)

CACHING_APPS = ("lr", "kmeans")


@cache
def inputs():
    return cell_inputs(words=1_500, keys=150, nodes=60, edges=240,
                       points=700)


def cell_config(app, **axes):
    """The app's (tiny) geometry with the cell's five axes applied."""
    geometry = dict(heap_bytes=32 * KB, mp_stage_timeout_s=30.0)
    if app in CACHING_APPS:
        # The caching-only split of §6.2; 700 points overflow two
        # 32 KB heaps in every mode, so each sim cell swaps.
        return lr_config(page_bytes=2 * KB, **geometry, **axes)
    return DecaConfig(num_executors=2, tasks_per_executor=2,
                      page_bytes=1 * KB, storage_fraction=0.1,
                      shuffle_fraction=0.1, **geometry, **axes)


def run(app, **axes):
    # Two passes over the cache for LR/KMeans (swap out, read back); one
    # graph iteration already reads its cached adjacency twice, and every
    # further one costs the mp cells four more forked stages.
    iterations, partitions = \
        (2, LR_PARTITIONS) if app in CACHING_APPS else (1, 4)
    return run_cell(app, inputs(), cell_config(app, **axes),
                    iterations=iterations, partitions=partitions)


@cache
def reference(app):
    digest, ref = run(app, **REFERENCE)
    if app == "lr":
        assert ref.swapped_cache_bytes > 0, "the LR point must swap"
    return digest


def leftovers():
    """Segments and tier files of this process that exist right now."""
    pid = os.getpid()
    tier_files = glob.glob(os.path.join(
        tempfile.gettempdir(), f"{TIER_FILE_PREFIX}-{pid}-*"))
    return set(list_segments(f"{SEGMENT_PREFIX}-{pid}-") + tier_files)


@pytest.fixture
def leaves_nothing_behind():
    """Fail the cell if it adds a segment or tier file that outlives it.

    Compared with what existed before the cell: an earlier test's
    context that was never ``finish()``-ed keeps its tier file until the
    garbage collector gets to it, and that is not this cell's leak.
    """
    before = leftovers()
    yield
    assert leftovers() <= before


CELLS = list(itertools.product(CELL_APPS, ExecutionMode, BACKENDS,
                               COLD_TIERS, MEMORY_MODES))


@pytest.mark.parametrize(
    "app,mode,backend,cold_tier,memory_mode", CELLS,
    ids=["-".join((app, mode.value, *rest)) for app, mode, *rest in CELLS])
def test_cell_matches_reference(app, mode, backend, cold_tier, memory_mode,
                                leaves_nothing_behind):
    if backend == "mp" and not shm_available():
        pytest.skip("platform has no shared memory")
    axes = dict(mode=mode, execution_backend=backend, cold_tier=cold_tier,
                memory_mode=memory_mode, sanitize=True)
    digest, cell = run(app, **axes)
    metrics = cell.metrics

    assert digest == reference(app)
    # What `repro.bench sanitize` gates: both sanitizers ran (non-empty
    # summaries) and stayed silent.
    assert sanitizers_silent({"sanitize": metrics.sanitize,
                              "race": metrics.race})

    deca = mode is ExecutionMode.DECA
    if deca and backend == "sim" and app == "lr":
        # What `repro.bench tier --check` gates: the heap tier pays for
        # the swap in serializer copies, the mmap tier moves the bytes.
        swap = tier_summary(cell)
        if cold_tier == "mmap":
            assert swap_moves_bytes(swap), swap
        else:
            assert swap_pays_copies(swap), swap
    if deca and backend == "mp":
        # What `repro.bench backend --check` gates.
        assert shares_pages(metrics.backend), metrics.backend
        if app == "wc":
            assert pickles_no_records(metrics.backend), metrics.backend

    if backend == "sim":
        _, again = run(app, **axes)
        assert json.dumps(again.metrics.to_dict(), sort_keys=True) \
            == json.dumps(metrics.to_dict(), sort_keys=True)


@cache
def sql_roundtrip(cold_tier, sanitize):
    return run_sql_swap_roundtrip(rankings_rows=400, uservisits_rows=800,
                                  cold_tier=cold_tier, sanitize=sanitize)


@pytest.mark.parametrize("sanitize", [False, True],
                         ids=["plain", "sanitize"])
@pytest.mark.parametrize("cold_tier", COLD_TIERS)
def test_sql_cell_matches_reference(cold_tier, sanitize,
                                    leaves_nothing_behind):
    expected = sql_roundtrip("heap", False)["resident_digests"]
    cell = sql_roundtrip(cold_tier, sanitize)

    assert cell["resident_digests"] == expected
    # What `repro.bench sql --check` gates: bytes left, every promoted
    # digest equals its resident one, the ledger is clean — and on the
    # mmap tier the trip is raw bytes out and back.
    assert roundtrip_is_clean(cell), cell
    if cold_tier == "mmap":
        assert swap_moves_bytes(cell) and swap_returns_bytes(cell), cell
    else:
        assert swap_pays_copies(cell), cell
