"""Smoke tests: the shipped examples must keep running end-to-end.

``graph_analytics`` is exercised by the Fig. 10 benchmarks instead — it
runs PageRank at a scale too slow for the unit suite.
"""

import os
import runpy
import sys

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def run_example(name: str, capsys) -> str:
    path = os.path.join(EXAMPLES, name)
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "--- spark ---" in out
        assert "--- deca ---" in out
        assert "GC pause time" in out

    def test_custom_udt(self, capsys):
        out = run_example("custom_udt.py", capsys)
        assert "local classification : runtime-fixed" in out
        assert "static-fixed" in out
        assert "group reclaimed by its owner" in out

    def test_sql_comparison(self, capsys):
        out = run_example("sql_comparison.py", capsys)
        assert "spark-sql" in out
        assert "all three systems agree" in out

    def test_iterative_ml(self, capsys):
        out = run_example("iterative_ml.py", capsys)
        assert "max weight drift between Spark and Deca: 0.00e+00" in out
        assert "DECOMPOSED" in out
