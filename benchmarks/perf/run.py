"""Script entry point for ``BENCHMARK.json`` (no ``PYTHONPATH`` needed)."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, _ROOT)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
