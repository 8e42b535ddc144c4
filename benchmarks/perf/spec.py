"""The benchmark's contract, read from the root ``BENCHMARK.json``.

That file is the single list of workload and metric names, units and
regression bounds; the code computes values by name and takes
everything else from here, so the two cannot drift apart.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: dict[str, str]            # name -> why
    end_to_end: dict[str, dict[str, Any]]  # name -> unit, better, bound
    per_layer: dict[str, dict[str, Any]]   # name -> unit, better


def load() -> Spec:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        raw = json.load(handle)

    def by_name(entries: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
        return {entry["name"]: entry for entry in entries}

    return Spec(
        run_seconds=raw["run_seconds"],
        workloads={entry["name"]: entry["why"]
                   for entry in raw["workloads"]},
        end_to_end=by_name(raw["end_to_end"]),
        per_layer=by_name(raw["per_layer"]))
