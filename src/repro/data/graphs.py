"""Power-law graph generation for PageRank / ConnectedComponent (§6.3).

The paper uses three real graphs — LiveJournal (4.8M vertices / 68M
edges), WebBase (118M / 1B) and a 60 GB HiBench-generated graph (602M /
2B) — plus Pokec (1.6M / 30M) in the microbenchmark.  We generate scaled
stand-ins with the same qualitative structure: heavy-tailed out-degrees
(preferential attachment), so per-vertex adjacency lists vary wildly in
length — the property that makes them VSTs in the shuffle buffer and RFSTs
once cached (Fig. 7(b)).

``GRAPH_PRESETS`` scales the three paper graphs down by ~1000x while
keeping their vertex:edge ratios.
"""

from __future__ import annotations

import random

from ..errors import DecaError

Edge = tuple[int, int]

# name -> (vertices, edges), ~1000x scaled from Table 2.
GRAPH_PRESETS: dict[str, tuple[int, int]] = {
    "LiveJournal": (4_800, 68_000),
    "WebBase": (23_600, 200_000),
    "HiBench": (60_200, 400_000),
    "Pokec": (1_600, 30_000),
}


def power_law_graph(num_vertices: int, num_edges: int,
                    seed: int = 41) -> list[Edge]:
    """A directed multigraph with preferential-attachment in-degrees.

    Every vertex gets at least one outgoing edge (so PageRank has no
    dangling-source artifacts at tiny scales); targets are chosen
    preferentially, yielding the heavy-tailed degree distribution of web
    and social graphs.
    """
    if num_vertices < 2:
        raise DecaError("need at least two vertices")
    if num_edges < num_vertices:
        raise DecaError("need at least one edge per vertex")
    below = random.Random(seed)._randbelow   # randrange(n) is _randbelow(n)
    # Repeated-target list implements preferential attachment cheaply.
    targets: list[int] = [0, 1]
    edges: list[Edge] = []
    for src in range(num_vertices):
        dst = targets[below(len(targets))]
        if dst == src:
            dst = (src + 1) % num_vertices
        edges.append((src, dst))
        targets.append(dst)
        targets.append(src)
    for _ in range(num_edges - num_vertices):
        src = below(num_vertices)
        dst = targets[below(len(targets))]
        if dst == src:
            dst = (dst + 1) % num_vertices
        edges.append((src, dst))
        targets.append(dst)
    return edges


def graph_preset(name: str, seed: int = 41) -> list[Edge]:
    """Generate one of the paper's graphs at reproduction scale."""
    try:
        vertices, edges = GRAPH_PRESETS[name]
    except KeyError:
        raise DecaError(
            f"unknown graph preset {name!r}; "
            f"choose from {sorted(GRAPH_PRESETS)}") from None
    return power_law_graph(vertices, edges, seed=seed)
