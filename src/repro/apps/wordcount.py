"""WordCount — the shuffling-only application (paper §6.1, Fig. 8).

A two-stage MapReduce job: the map stage emits ``(word, 1)`` pairs into a
hash-based shuffle buffer with eager aggregation; the reduce stage merges
the partial counts.  In Spark every eager combine allocates a fresh
``Tuple2`` (the fluctuating object population of Fig. 8(a)); Deca
classifies the aggregated Value an SFST and reuses its page segment on
every combine, and outputs the raw buffer bytes with no serialization.
"""

from __future__ import annotations

from ..config import DecaConfig
from ..spark.rdd import UdtInfo
from .common import AppRun, make_context
from .udts import Tuple2, WC_STAGE


def wordcount_udt_info() -> UdtInfo:
    """The ``Tuple2[String, Int]`` model fed to the Deca optimizer."""
    return UdtInfo(
        udt=Tuple2,
        entry_method=WC_STAGE,
    )


def run_wordcount(words: list[str], config: DecaConfig | None = None,
                  num_partitions: int = 8,
                  profile: bool = False) -> AppRun:
    """Count word occurrences; returns the counts and the run metrics."""
    ctx = make_context(config,
                       profile_prefix="shuffle-buf" if profile else None)
    info = wordcount_udt_info()
    lines = ctx.text_file(words, num_partitions, name="wc.input")
    pairs = lines.map(lambda word: (word, 1), name="wc.pairs") \
                 .with_udt(info)
    counts = pairs.reduce_by_key(lambda a, b: a + b, num_partitions,
                                 name="wc.counts")
    result = dict(counts.collect())
    metrics = ctx.finish()
    return AppRun(result=result, metrics=metrics, ctx=ctx)
