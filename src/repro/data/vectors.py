"""Feature-vector datasets for LR and KMeans (paper §6.2).

Two regimes from the paper:

* randomly generated **10-dimension** vectors (the 40–200 GB sweeps of
  Fig. 9(b)/(c)), where object headers dominate the footprint and Deca's
  compaction shines;
* **4096-dimension** vectors modelled on the Amazon image dataset
  (Fig. 9(d)), where the payload dwarfs the headers and the cache-size gap
  nearly vanishes.
"""

from __future__ import annotations

import random
from math import cos, log, sin, sqrt, tau
from operator import add
from typing import Callable

from ..errors import DecaError

LabeledPoint = tuple[float, tuple[float, ...]]


def _gauss_run(draw: Callable[[], float], n: int, mu: float,
               sigma: float, spare: float | None
               ) -> tuple[list[float], float | None]:
    """*n* values exactly as *n* ``Random.gauss(mu, sigma)`` calls make them.

    ``gauss`` turns two ``random()`` draws into a Box–Muller pair, returns
    ``mu + z * sigma`` for the cosine value and keeps the sine value
    (``gauss_next``) for its next call.  *draw* is the generator's bound
    ``random`` method and *spare* the kept value (or None); the second
    result is the one left over, for the next run.
    """
    out: list[float] = []
    append = out.append
    if spare is not None:
        append(mu + spare * sigma)
        n -= 1
    for _ in range(n >> 1):
        x2pi = draw() * tau
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        append(mu + cos(x2pi) * g2rad * sigma)
        append(mu + sin(x2pi) * g2rad * sigma)
    if n & 1:
        x2pi = draw() * tau
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        append(mu + cos(x2pi) * g2rad * sigma)
        return out, sin(x2pi) * g2rad
    return out, None


def labeled_points(count: int, dimensions: int = 10,
                   seed: int = 29) -> list[LabeledPoint]:
    """Binary-labeled points around two separated Gaussian blobs.

    The separation makes logistic regression converge, so iteration counts
    in the benchmarks measure steady-state cost, not numerical drift.
    """
    if count < 0:
        raise DecaError("count cannot be negative")
    if dimensions < 1:
        raise DecaError("dimensions must be >= 1")
    draw = random.Random(seed).random
    spare = None
    data: list[LabeledPoint] = []
    for _ in range(count):
        label = 1.0 if draw() < 0.5 else 0.0
        shift = 1.0 if label > 0.5 else -1.0
        features, spare = _gauss_run(draw, dimensions, shift, 1.0, spare)
        data.append((label, tuple(features)))
    return data


def clustered_points(count: int, dimensions: int = 10, clusters: int = 8,
                     seed: int = 31) -> list[tuple[float, ...]]:
    """Unlabeled points around *clusters* centers (the KMeans input)."""
    if count < 0:
        raise DecaError("count cannot be negative")
    if dimensions < 1 or clusters < 1:
        raise DecaError("dimensions and clusters must be >= 1")
    rng = random.Random(seed)
    centers = [tuple(rng.uniform(-10.0, 10.0) for _ in range(dimensions))
               for _ in range(clusters)]
    draw, below = rng.random, rng._randbelow   # randrange(n) is _randbelow(n)
    spare = None
    data = []
    for _ in range(count):
        center = centers[below(clusters)]
        noise, spare = _gauss_run(draw, dimensions, 0.0, 0.8, spare)
        data.append(tuple(map(add, center, noise)))
    return data
