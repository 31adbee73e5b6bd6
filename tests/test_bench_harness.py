"""The benchmark's own unittest suite (`rbxbench/test_*.py`) runs with tier-1.

Those tests show that every correctness check of the benchmark can fail and
that the tracer counts exactly; they are stdlib unittest, so this module loads
and runs them the way `python3 -m unittest discover -s rbxbench` does.
"""

import io
import os
import unittest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "rbxbench")


def test_benchmark_unittests_pass():
    suite = unittest.TestLoader().discover(BENCH, pattern="test_*.py", top_level_dir=BENCH)
    out = io.StringIO()
    result = unittest.TextTestRunner(stream=out, verbosity=0).run(suite)
    assert result.wasSuccessful(), out.getvalue()
    assert result.testsRun == 22
