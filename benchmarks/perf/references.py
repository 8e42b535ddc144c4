"""Plain-Python reference computations the engine's results are checked against.

Nothing here imports ``repro``: each function recomputes a workload's
answer from the generated inputs with loops, dicts and comprehensions
only, so a benchmark run fails when the engine and the obvious program
disagree.  Floating-point results are compared to a relative 1e-9
(the engine reduces per partition, so its summation order differs).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Sequence

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def wordcount(words: Sequence[str]) -> dict[str, int]:
    return dict(Counter(words))


def logistic_regression(points: Sequence[tuple[float, tuple[float, ...]]],
                        iterations: int) -> tuple[float, ...]:
    """Batch gradient descent exactly as the LR application states it."""
    dimensions = len(points[0][1])
    weights = [2.0 * ((i * 2654435761 % 97) / 97.0) - 1.0
               for i in range(dimensions)]
    count = float(len(points))
    for _ in range(iterations):
        total = [0.0] * dimensions
        for label, features in points:
            margin = sum(w * x for w, x in zip(weights, features, strict=True))
            margin = max(-30.0, min(30.0, -label * margin))
            factor = (1.0 / (1.0 + math.exp(margin)) - 1.0) * label
            for i, x in enumerate(features):
                total[i] += x * factor
        weights = [w - g / count for w, g in zip(weights, total, strict=True)]
    return tuple(weights)


def pagerank(edges: Sequence[tuple[int, int]], iterations: int,
             damping: float = 0.85) -> dict[int, float]:
    """Dict PageRank with the application's join semantics: a vertex
    keeps a rank only while some neighbour contributes to it."""
    adjacency: dict[int, list[int]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    ranks = {vertex: 1.0 for vertex in adjacency}
    for _ in range(iterations):
        sums: dict[int, float] = {}
        for vertex, rank in ranks.items():
            neighbors = adjacency.get(vertex)
            if not neighbors:
                continue
            share = rank / len(neighbors)
            for neighbor in neighbors:
                sums[neighbor] = sums.get(neighbor, 0.0) + share
        ranks = {vertex: (1.0 - damping) + damping * total
                 for vertex, total in sums.items()}
    return ranks


def sql_suite(rankings: Sequence[tuple], uservisits: Sequence[tuple],
              threshold: int = 100, prefix: int = 5,
              k: int = 10) -> dict[str, list[tuple]]:
    """The four suite queries as list comprehensions."""
    sums: dict[str, float] = {}
    for visit in uservisits:
        key = visit[0][:prefix]
        sums[key] = sums.get(key, 0.0) + visit[3]
    return {
        "scan": [(url, rank, duration)
                 for url, rank, duration in rankings],
        "filter": [(url, rank) for url, rank, _ in rankings
                   if rank > threshold],
        "groupby": sorted(sums.items()),
        "topk": sorted(((url, rank) for url, rank, duration in rankings
                        if duration > 10),
                       key=lambda row: row[1], reverse=True)[:k],
    }


def same_vector(got: Sequence[float], want: Sequence[float]) -> bool:
    return len(got) == len(want) and all(
        close(a, b) for a, b in zip(got, want, strict=True))


def same_float_map(got: dict[Any, float], want: dict[Any, float]) -> bool:
    return got.keys() == want.keys() and all(
        close(got[key], want[key]) for key in want)


def same_rows(got: Sequence[tuple], want: Sequence[tuple]) -> bool:
    """Row lists equal, floats to tolerance."""
    if len(got) != len(want):
        return False
    for row_a, row_b in zip(got, want, strict=True):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b, strict=True):
            if isinstance(a, float) or isinstance(b, float):
                if not close(a, b):
                    return False
            elif a != b:
                return False
    return True
