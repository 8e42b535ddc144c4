"""Pinned digests of the packed bytes every app puts in its containers.

A decomposed record's bytes are what a page, a swap extent, a shared
segment and a SparkSer blob hold, so a change to how records are laid
out must leave them alone unless it means to change the format.  Each
case runs one app at seed 1 on the sim backend in SparkSer and Deca mode
and hashes, in the order the engine produces them:

* every cached block at the moment it is put: a Deca block's used page
  bytes, a SparkSer block's blob;
* every shuffle map-output block whose plan has a layout, packed by that
  plan (the bytes the mp backend writes into its shared segment).

The digest is the SHA-256 of ``target, byte count, bytes`` per block.
"""

import hashlib

import pytest

from repro.apps.kmeans import run_kmeans
from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.apps.sql_queries import run_query1, run_query2
from repro.apps.wordcount import run_wordcount
from repro.config import DecaConfig, ExecutionMode
from repro.data import (
    clustered_points,
    labeled_points,
    power_law_graph,
    random_words,
    rankings_table,
    uservisits_table,
)
from repro.spark.cache import CacheStore
from repro.spark.shuffle import ShuffleBlockStore

APPS = {
    "lr": lambda config: run_logistic_regression(
        labeled_points(300, 6, seed=1), config, iterations=2,
        num_partitions=4),
    "kmeans": lambda config: run_kmeans(
        clustered_points(300, 5, 3, seed=1), k=3, config=config,
        iterations=2, num_partitions=4),
    "wc": lambda config: run_wordcount(
        random_words(2_000, 200, seed=1), config, num_partitions=4),
    "pr": lambda config: run_pagerank(
        power_law_graph(80, 400, seed=1), config, iterations=2,
        num_partitions=4),
    "q1": lambda config: run_query1(
        rankings_table(300, seed=1), config, num_partitions=4),
    "q2": lambda config: run_query2(
        uservisits_table(300, seed=1), config, num_partitions=4),
}

#: (app, mode) -> (blocks hashed, SHA-256), taken when each app still
#: converted its records to the layout's shape with hand-written
#: encode/decode functions.  SparkSer WordCount caches nothing and
#: shuffles object graphs, so it packs no bytes.
PINNED = {
    ("lr", "spark-ser"):
        (4, "4f94b9c1aa8f0f5c399b7a88a1cb56e2819ff1950b6dfada71c0eb67b1384e75"),
    ("lr", "deca"):
        (4, "9ff2ecab64325966b4435ca4df6b8f3e0c4cd31662b36414b5f545d34280623b"),
    ("kmeans", "spark-ser"):
        (4, "5266bc244cadc6fd2a8b2e700c15b4b2a13fe39ae8e5e31681c9e55b37ca40d3"),
    ("kmeans", "deca"):
        (36, "ff411736c8c1fb1d8e650bf7ff8b8d5003dd773f459248c7978c2459901f46e3"),
    ("wc", "deca"):
        (16, "b717cf952b154996a82a62a90c44ffa3feee1c68bd30e8e64810d7589a885467"),
    ("pr", "spark-ser"):
        (4, "9c2931eb151c3e598884b3ece62d8e4a558cb1329dce1454020a9ff67c425b64"),
    ("pr", "deca"):
        (52, "c167452988db076d75b1b15792abbf9f86466dd25af9bb7e90f77570c9153c42"),
    ("q1", "spark-ser"):
        (4, "6b2d356640b1030fe2bd3edcb2743e55976fbf9c0d50077c035b59465e473431"),
    ("q1", "deca"):
        (4, "6b2d356640b1030fe2bd3edcb2743e55976fbf9c0d50077c035b59465e473431"),
    ("q2", "spark-ser"):
        (4, "fde9bc5e294654ffd309c6b5e6841f7e5b30d81637e6ae43125bf3742bd701bf"),
    ("q2", "deca"):
        (4, "fde9bc5e294654ffd309c6b5e6841f7e5b30d81637e6ae43125bf3742bd701bf"),
}


def page_bytes(group) -> bytes:
    return b"".join(bytes(page.data[:page.used]) for page in group.pages)


def container_digest(monkeypatch, app: str, mode: str) -> tuple[int, str]:
    """Run *app* in *mode*, hashing every packed block it makes."""
    sha = hashlib.sha256()
    blocks = 0

    def record(target: str, data: bytes) -> None:
        nonlocal blocks
        blocks += 1
        sha.update(f"{target}:{len(data)}\n".encode())
        sha.update(data)

    put = CacheStore.put
    register = ShuffleBlockStore.register

    def hashing_put(self, block):
        if block.page_group is not None:
            record(block.plan.target, page_bytes(block.page_group))
        elif block.blob is not None:
            record(block.plan.target, block.blob)
        return put(self, block)

    def hashing_register(self, shuffle_id, map_part, reduce_part, block):
        if block.plan.schema is not None and block.records is not None:
            record(block.plan.target, block.plan.pack(block.records))
        return register(self, shuffle_id, map_part, reduce_part, block)

    monkeypatch.setattr(CacheStore, "put", hashing_put)
    monkeypatch.setattr(ShuffleBlockStore, "register", hashing_register)
    APPS[app](DecaConfig(mode=ExecutionMode(mode)))
    return blocks, sha.hexdigest()


@pytest.mark.parametrize("app, mode", list(PINNED),
                         ids=[f"{app}-{mode}" for app, mode in PINNED])
def test_container_bytes_are_pinned(monkeypatch, app, mode):
    blocks, digest = container_digest(monkeypatch, app, mode)
    assert blocks > 0
    assert (blocks, digest) == PINNED[app, mode]
