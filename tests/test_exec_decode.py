"""Where the mp backend decodes a shipped block.

A block crosses the pipe as one :class:`~repro.exec.shm.BlockPayload`
and is decoded only where it is read, at most once per process
(docs/execution_backends.md, "The order / delta protocol"):

* a shuffle block is decoded by the worker that reads its reduce
  partition — never by the driver, which reads no shuffle block;
* a pickled cache block is decoded by the driver when it is registered
  (a later job's fork inherits the records) and by a worker on its
  first read; registering it in a worker decodes nothing.
"""

import types

import pytest

import repro.exec.mp as mp_mod
import repro.exec.shm as shm_mod
from repro.apps.pagerank import build_adjacency
from repro.bench.harness import cell_inputs, run_cell
from repro.config import KB, DecaConfig, ExecutionMode
from repro.exec.mp import JobState
from repro.exec.shm import BlockPayload, ship_block, shm_available
from repro.exec.worker import MapBlockOut, TaskOutput
from repro.spark import DecaContext

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory")


@pytest.fixture
def read_block_calls(monkeypatch):
    """Every ``read_block`` call made in *this* process (a forked worker
    appends to its own copy of the list)."""
    calls = []
    real = shm_mod.read_block

    def counted(block, plan, sanitizer=None):
        calls.append(block)
        return real(block, plan, sanitizer)

    monkeypatch.setattr(shm_mod, "read_block", counted)
    # Whichever module imported the name itself sees the wrapper too.
    monkeypatch.setattr(mp_mod, "read_block", counted, raising=False)
    return calls


def wc_config(backend):
    return DecaConfig(mode=ExecutionMode.SPARK, execution_backend=backend,
                      num_executors=2, tasks_per_executor=2,
                      page_bytes=1 * KB, storage_fraction=0.1,
                      shuffle_fraction=0.1, heap_bytes=32 * KB,
                      mp_stage_timeout_s=30.0)


def test_the_driver_decodes_no_shuffle_block(read_block_calls):
    """Spark-mode WordCount pickles its 16 shuffle blocks (4 map x 4
    reduce partitions); the reducers in the workers decode them, the
    driver none."""
    inputs = cell_inputs(words=1_500, keys=150)
    expected, _ = run_cell("wc", inputs, wc_config("sim"), partitions=4)
    assert read_block_calls == []
    digest, run = run_cell("wc", inputs, wc_config("mp"), partitions=4)
    assert digest == expected
    assert run.metrics.backend["bytes_pickled_records"] > 0
    assert read_block_calls == []


@pytest.mark.parametrize("mode", [ExecutionMode.SPARK, ExecutionMode.DECA])
def test_a_partition_read_twice_by_the_attempt_that_computes_it(mode):
    """A self-join reads each cached adjacency partition twice in the
    task that computes it: the second read streams the records the
    attempt computed instead of computing and shipping the block again
    (deca: a second segment under the same name)."""
    edges = sorted({(i % 23, (i * 7) % 23) for i in range(120)})

    def self_join(backend):
        ctx = DecaContext(DecaConfig(
            mode=mode, execution_backend=backend, num_executors=2,
            tasks_per_executor=2, mp_stage_timeout_s=30.0, sanitize=True))
        adjacency = build_adjacency(ctx, edges, 4, name="dec")
        joined = sorted(adjacency.join(adjacency, 4).collect())
        metrics = ctx.finish()
        assert metrics.sanitize.get("violations", 0) == 0
        return joined, metrics.backend

    expected, _ = self_join("sim")
    got, stats = self_join("mp")
    assert got == expected
    if mode is ExecutionMode.DECA:
        assert stats["segments_created"] > 0


def spark_job_state():
    """A spark-mode job's state with one shuffle stage and one cached
    dataset, both of which ship pickles."""
    ctx = DecaContext(wc_config("sim"))
    cached = ctx.parallelize([(i, i * i) for i in range(20)], 2,
                             name="dec.cached").cache()
    counts = cached.reduce_by_key(lambda a, b: a + b, 2, name="dec.counts")
    dep = counts.shuffle_dep
    stage = types.SimpleNamespace(shuffle_dep=dep)
    state = JobState(ctx=ctx, stages={0: (stage, ctx.plan_shuffle(dep))},
                     result_func=list, cache_blocks={}, decoded={},
                     run_tag="dec")
    return ctx, cached, state


def one_task_output(ctx, cached, state):
    _, shuffle_plan = state.stages[0]
    records = [(1, 1), (3, 9)]
    return TaskOutput(
        split=0, attempt=0, executor_id=0,
        map_blocks=[MapBlockOut(
            reduce_part=0, nbytes=64, objects=2, merge_penalty_bytes=0,
            payload=ship_block(shuffle_plan, records, "unused"))],
        cache_blocks={(cached.rdd_id, 0): ship_block(
            ctx.plan_cache(cached), records, "unused")}), records


def test_a_worker_registers_blocks_without_decoding(read_block_calls):
    ctx, cached, state = spark_job_state()
    out, records = one_task_output(ctx, cached, state)
    key = (cached.rdd_id, 0)
    state.register(0, out)      # owner None: a worker folding a delta
    assert read_block_calls == []
    assert state.decoded == {}
    assert all(isinstance(block, BlockPayload)
               for block in state.cache_blocks.values())
    stage, _ = state.stages[0]
    block = ctx.shuffle_store.fetch(stage.shuffle_dep.shuffle_id, 0, 0)
    assert block.records is None
    # Decoded where read: the reducer's read, then the first cache read
    # (kept for the process), then the second (served from the map).
    assert list(block.read()) == records
    plan = ctx.plan_cache(cached)
    assert state.cached_records(key, plan) == records
    assert state.cached_records(key, plan) is state.decoded[key]
    assert len(read_block_calls) == 2
    ctx.finish()


def test_the_driver_decodes_a_pickled_cache_block_once(read_block_calls):
    ctx, cached, state = spark_job_state()
    out, records = one_task_output(ctx, cached, state)
    owner = types.SimpleNamespace(
        stats=types.SimpleNamespace(bytes_pickled_records=0))
    state.register(0, out, owner=owner)
    # The cache block only: the shuffle block stays a payload.
    assert len(read_block_calls) == 1
    assert state.decoded == {(cached.rdd_id, 0): records}
    assert owner.stats.bytes_pickled_records == sum(
        len(payload.blob) for payload in
        (out.map_blocks[0].payload, *out.cache_blocks.values()))
    ctx.finish()
