"""Machine-speed calibration: every reported time is in reference seconds.

The sandbox this benchmark runs in shares its physical cores.  A fixed
pure-Python kernel timed back to back for a minute shows two sharp
floors, 7.9 ms and 12.6 ms, that alternate every 10-25 s (README.md,
"Noise policy"): the same job reads 0.99 s or 1.55 s depending on which
mode it lands in, CPU time moves with wall time, and a whole 12 s run
can sit in one mode — so neither a minimum nor a median over the jobs
of a run repeats to better than 20-30 %.

The instrument therefore measures the machine next to the work: the
kernel below runs immediately before and after every timed region, and
the region's time is scaled by ``(REFERENCE_S / kernel time) **
sensitivity``.  What is reported is the time the region would have taken
at the speed where the kernel takes ``REFERENCE_S`` (this box's fast
mode); a sample taken at that speed is reported as measured.  The
*sensitivity* says how much of the kernel's slowdown the region shares:
the slow mode costs this tight loop 1.65x but a dict- and
allocation-heavy WordCount job only 1.3x and a fork-bound mp job
nothing, so each workload carries its own measured exponent
(``workloads.py``; README.md has the fits).  A region whose two
calibrations disagree straddled a mode switch; such samples are left
out when enough others remain, and the named metric is the lower
quartile of the rest.  Raw times are written
beside the calibrated ones.  Nothing here imports the engine.
"""

from __future__ import annotations

import math
import statistics
import struct
import time
from dataclasses import dataclass
from typing import Any

#: Kernel time that defines "reference speed" (seconds per pass).
REFERENCE_S = 0.006
#: Exponent for regions that are not a workload's own jobs (set-up:
#: imports and data generation; the sim reference job of ``pr-mp``).
DEFAULT_SENSITIVITY = 0.75
#: Two calibrations further apart than this saw different machine modes.
STABLE_WITHIN = 0.10
_PASSES = 4
_RECORD = struct.Struct("<d10d")


def kernel_pass() -> float:
    """One pass of the fixed kernel: unpack, dict store, float math —
    the interpreter work the engine's record paths are made of."""
    buffer = bytearray(_RECORD.size)
    table: dict[int, float] = {}
    total = 0.0
    unpack = _RECORD.unpack_from
    start = time.perf_counter()
    for i in range(15_000):
        record = unpack(buffer, 0)
        table[i & 1023] = record[0] + i
        total += math.exp(-(i & 7)) * record[3]
    return time.perf_counter() - start


def speed() -> float:
    """Seconds per kernel pass right now: the best of a few passes,
    because interference only ever adds time to a pass."""
    return min(kernel_pass() for _ in range(_PASSES))


@dataclass
class Sample:
    """One timed region with the machine speed on either side of it."""

    wall_s: float
    cpu_s: float
    before: float
    after: float
    run: Any = None

    def factor(self, sensitivity: float) -> float:
        """Multiply a raw time of this region by this."""
        kernel_s = (self.before + self.after) / 2.0
        return (REFERENCE_S / kernel_s) ** sensitivity

    @property
    def stable(self) -> bool:
        low, high = sorted((self.before, self.after))
        return high - low <= STABLE_WITHIN * low


def calibrated_low(samples: list[Sample], field: str,
                   sensitivity: float) -> float:
    """Lower quartile of calibrated *field* over the stable samples (all
    of them when fewer than three are stable).

    Within one machine mode interference comes as bursts shorter than a
    job and only ever adds time: two thirds of the jobs of a run sit
    within 3 % of each other and the rest up to 35 % above them.  The
    lower quartile reads the cluster; the minimum would read the one
    sample whose calibration erred most.
    """
    stable = [sample for sample in samples if sample.stable]
    chosen = stable if len(stable) >= 3 else samples
    values = [getattr(sample, field) * sample.factor(sensitivity)
              for sample in chosen]
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]
